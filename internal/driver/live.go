package driver

import (
	"fmt"
	"math"

	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/workload"
	"tpcxiot/internal/ycsb"
)

// ClusterSUT drives the live in-process mini-HBase cluster as the System
// Under Test. The benchmark table is pre-split so every simulated substation
// owns its own region — the standard deployment practice for TPCx-IoT runs
// against HBase.
type ClusterSUT struct {
	cluster     *hbase.Cluster
	table       string
	splits      [][]byte
	writeBuffer int64
	useTCP      bool
}

// NewClusterSUT creates the benchmark table for `drivers` substations and
// returns the SUT. writeBufferBytes configures each client's write buffer
// (hbase.client.write.buffer).
func NewClusterSUT(cl *hbase.Cluster, drivers int, writeBufferBytes int64) (*ClusterSUT, error) {
	if drivers <= 0 {
		return nil, fmt.Errorf("driver: non-positive driver count %d", drivers)
	}
	s := &ClusterSUT{
		cluster:     cl,
		table:       "iot",
		splits:      workload.SplitKeys(workload.SubstationNames(drivers)),
		writeBuffer: writeBufferBytes,
	}
	if _, err := cl.CreateTable(s.table, s.splits); err != nil {
		return nil, err
	}
	return s, nil
}

// UseTCP switches the SUT's clients to the cluster's loopback TCP wire
// protocol, starting the listeners if needed: the benchmark then exercises
// the full client-to-region-server network path.
func (s *ClusterSUT) UseTCP() error {
	if err := s.cluster.ServeTCP(); err != nil {
		return err
	}
	s.useTCP = true
	return nil
}

// Binding implements SUT: one buffered client per worker thread.
func (s *ClusterSUT) Binding(d int) ycsb.Binding {
	if s.useTCP {
		return workload.ClusterBindingTCP(s.cluster, s.table, s.writeBuffer)
	}
	return workload.ClusterBinding(s.cluster, s.table, s.writeBuffer)
}

// ReplicationFactor implements SUT.
func (s *ClusterSUT) ReplicationFactor() int { return s.cluster.ReplicationFactor() }

// Quiesce implements Quiescer: it drains every region's replication
// catch-up queues so stragglers converge before counters are read.
func (s *ClusterSUT) Quiesce() error { return s.cluster.Quiesce() }

// Cleanup implements SUT: drop the table (purging all ingested data and
// temporary files) and recreate it empty, the system cleanup of Figure 6.
func (s *ClusterSUT) Cleanup() error {
	if err := s.cluster.DropTable(s.table); err != nil {
		return err
	}
	_, err := s.cluster.CreateTable(s.table, s.splits)
	return err
}

// CountRows implements RowCounter: it counts the stored readings through
// the count-only aggregate RPC, so each region folds its rows to a count
// where they live and no row crosses the region-server boundary. It counts
// every live key with the kvp key shape and a timestamp >= 0, which is
// every key the kit writes.
func (s *ClusterSUT) CountRows() (int64, error) {
	client, err := s.cluster.NewClient(s.table, 0)
	if err != nil {
		return 0, err
	}
	defer client.Close()
	res, err := client.Aggregate(nil, nil, 0, math.MaxInt64, 0, lsm.AggCount)
	if err != nil {
		return 0, err
	}
	return res.RowsFolded, nil
}

// Describe implements SUT.
func (s *ClusterSUT) Describe() string {
	transport := "in-process"
	if s.useTCP {
		transport = "loopback TCP"
	}
	return fmt.Sprintf("mini-HBase cluster (%s): %d region servers, %d-way replication, table %q with %d regions",
		transport, s.cluster.NodeCount(), s.cluster.ReplicationFactor(), s.table, len(s.splits)+1)
}
