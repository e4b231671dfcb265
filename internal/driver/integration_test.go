package driver

import (
	"testing"

	"tpcxiot/internal/hbase"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/wal"
	"tpcxiot/internal/workload"
)

// newLiveCluster builds a real in-process cluster for integration tests.
func newLiveCluster(t *testing.T, nodes int) *hbase.Cluster {
	t.Helper()
	cl, err := hbase.NewCluster(hbase.Config{
		Nodes:   nodes,
		DataDir: t.TempDir(),
		Store:   lsm.Options{WALSync: wal.SyncNever, MemtableSize: 16 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestLiveBenchmarkEndToEnd runs the complete two-iteration benchmark
// against the real storage engine: WAL, memtables, replication, scans.
func TestLiveBenchmarkEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live end-to-end run")
	}
	cluster := newLiveCluster(t, 3)
	const drivers = 2
	const kvps = 8_000

	sut, err := NewClusterSUT(cluster, drivers, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Drivers:            drivers,
		TotalKVPs:          kvps,
		ThreadsPerDriver:   2,
		Seed:               3,
		SUT:                sut,
		MinWorkloadSeconds: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Iterations) != 2 {
		t.Fatalf("iterations = %d", len(res.Iterations))
	}
	for i, it := range res.Iterations {
		if it.Measured.KVPs != kvps {
			t.Fatalf("iteration %d ingested %d kvps", i, it.Measured.KVPs)
		}
	}
	if res.IoTps() <= 0 {
		t.Fatal("no throughput")
	}

	// The data of the second iteration must actually be in the store. Per
	// Figure 6 the cleanup runs only BETWEEN iterations, so after the run
	// the store holds iteration two's warmup AND measured data.
	client, err := cluster.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := client.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*kvps {
		t.Fatalf("store holds %d rows after the final iteration, want %d (warmup + measured)", len(rows), 2*kvps)
	}
	substations := map[string]int{}
	for _, row := range rows {
		k, err := kvp.DecodeKey(row.Key)
		if err != nil {
			t.Fatalf("stored key undecodable: %v", err)
		}
		v, err := kvp.DecodeValue(row.Value)
		if err != nil {
			t.Fatalf("stored value undecodable: %v", err)
		}
		if err := (kvp.Pair{Key: k, Value: v}).Validate(); err != nil {
			t.Fatalf("stored pair violates the spec: %v", err)
		}
		substations[k.Substation]++
	}
	if len(substations) != drivers {
		t.Fatalf("data from %d substations, want %d", len(substations), drivers)
	}
	// Equation 3: first driver floor(K/P), last takes the remainder —
	// doubled because warmup and measured data coexist.
	for d := 0; d < drivers; d++ {
		want := 2 * workload.KVPShare(kvps, drivers, d+1)
		if got := substations[workload.SubstationName(d)]; int64(got) != want {
			t.Fatalf("substation %d stored %d readings, want %d", d, got, want)
		}
	}
}

// TestLiveCleanupBetweenIterations verifies the system cleanup purges all
// data: after iteration one's cleanup, the store must start empty, and the
// data check of iteration two must still pass (no leftovers double-count).
func TestLiveCleanupBetweenIterations(t *testing.T) {
	cluster := newLiveCluster(t, 3)
	sut, err := NewClusterSUT(cluster, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Ingest, then cleanup, then check emptiness directly.
	if _, err := executeOnce(Config{
		Drivers: 1, TotalKVPs: 500, ThreadsPerDriver: 1,
		SUT: sut, MinWorkloadSeconds: 0.001,
	}); err != nil {
		t.Fatal(err)
	}
	client, _ := cluster.NewClient("iot", 0)
	rows, err := client.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("pre-cleanup rows = %d", len(rows))
	}
	if err := sut.Cleanup(); err != nil {
		t.Fatal(err)
	}
	client2, _ := cluster.NewClient("iot", 0)
	rows, err = client2.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("cleanup left %d rows behind", len(rows))
	}
}

// TestLiveQueriesSeeIngestedData verifies the query path reads real data
// concurrently written by the ingest path.
func TestLiveQueriesSeeIngestedData(t *testing.T) {
	cluster := newLiveCluster(t, 3)
	sut, err := NewClusterSUT(cluster, 1, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := executeOnce(Config{
		Drivers: 1, TotalKVPs: 6_000, ThreadsPerDriver: 1,
		SUT: sut, MinWorkloadSeconds: 0.001, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 6000 readings on one thread => queries at 2000, 4000, 6000.
	if exec.QueryLatency.Count() != 3 {
		t.Fatalf("queries = %d, want 3", exec.QueryLatency.Count())
	}
	// The recent 5s interval must have aggregated real rows: the run takes
	// well under 5 seconds, so the interval covers part of the ingest.
	if exec.AvgRowsPerQuery() <= 0 {
		t.Fatal("queries aggregated no rows despite live ingest")
	}
}

// TestClusterSUTDescribe covers the descriptive plumbing.
func TestClusterSUTDescribe(t *testing.T) {
	cluster := newLiveCluster(t, 4)
	sut, err := NewClusterSUT(cluster, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sut.ReplicationFactor() != 3 {
		t.Fatalf("factor = %d", sut.ReplicationFactor())
	}
	desc := sut.Describe()
	if desc == "" {
		t.Fatal("empty description")
	}
	if _, err := NewClusterSUT(cluster, 0, 0); err == nil {
		t.Fatal("zero drivers accepted")
	}
}

// TestLiveBenchmarkOverTCP runs the benchmark through the cluster's TCP
// wire protocol: real sockets between every worker thread and the region
// servers.
func TestLiveBenchmarkOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP run")
	}
	cluster := newLiveCluster(t, 3)
	sut, err := NewClusterSUT(cluster, 2, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := sut.UseTCP(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Drivers:            2,
		TotalKVPs:          4_000,
		ThreadsPerDriver:   2,
		SUT:                sut,
		Iterations:         1,
		MinWorkloadSeconds: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations[0].Measured.KVPs != 4_000 {
		t.Fatalf("TCP run ingested %d kvps", res.Iterations[0].Measured.KVPs)
	}
	if res.IoTps() <= 0 {
		t.Fatal("no TCP throughput")
	}
	if got := sut.Describe(); got == "" || !containsTCP(got) {
		t.Fatalf("description does not mention TCP: %q", got)
	}
	// Data actually landed.
	client, _ := cluster.NewTCPClient("iot", 0)
	defer client.Close()
	rows, err := client.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8_000 { // warmup + measured
		t.Fatalf("store holds %d rows", len(rows))
	}
}

func containsTCP(s string) bool {
	for i := 0; i+3 <= len(s); i++ {
		if s[i:i+3] == "TCP" {
			return true
		}
	}
	return false
}
