// Ablation benchmarks for the design choices DESIGN.md calls out: each
// benchmark toggles one mechanism and reports the affected metric, on both
// the live engine (real storage ablations) and the testbed model (the
// mechanisms behind the paper's shapes).
package tpcxiot

import (
	"fmt"
	"os"
	"testing"

	"tpcxiot/internal/driver"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/testbed"
	"tpcxiot/internal/wal"
	"tpcxiot/internal/workload"
	"tpcxiot/internal/ycsb"
)

// liveIngest runs a small real benchmark iteration and returns the IoTps
// of its measured run.
func liveIngest(b *testing.B, store lsm.Options, writeBuffer int64, preSplit bool) float64 {
	b.Helper()
	b.StopTimer()
	dir, err := os.MkdirTemp("", "tpcxiot-ablate-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store.WALSync = wal.SyncNever
	if store.MemtableSize == 0 {
		store.MemtableSize = 32 << 20
	}
	cluster, err := hbase.NewCluster(hbase.Config{Nodes: 3, DataDir: dir, Store: store})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()

	const drivers = 2
	var splits [][]byte
	if preSplit {
		splits = workload.SplitKeys(workload.SubstationNames(drivers))
	}
	if _, err := cluster.CreateTable("iot", splits); err != nil {
		b.Fatal(err)
	}
	b.StartTimer()

	res, err := driver.Run(driver.Config{
		Drivers:            drivers,
		TotalKVPs:          6_000,
		ThreadsPerDriver:   4,
		Iterations:         1,
		SUT:                &rawSUT{cluster: cluster, writeBuffer: writeBuffer},
		MinWorkloadSeconds: 0.001,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Iterations[0].Measured.IoTps()
}

// rawSUT is a minimal SUT over an externally created table, so ablations
// control the split layout themselves.
type rawSUT struct {
	cluster     *hbase.Cluster
	writeBuffer int64
}

func (s *rawSUT) Binding(int) ycsb.Binding {
	return workload.ClusterBinding(s.cluster, "iot", s.writeBuffer)
}
func (s *rawSUT) ReplicationFactor() int { return s.cluster.ReplicationFactor() }
func (s *rawSUT) Cleanup() error         { return nil }
func (s *rawSUT) Describe() string       { return "ablation SUT" }

// BenchmarkAblationWriteBuffer measures the live engine's sensitivity to
// the client write buffer (hbase.client.write.buffer): unbuffered clients
// pay one replicated round trip per reading.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	for _, buf := range []int64{0, 16 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("buffer=%dKiB", buf>>10), func(b *testing.B) {
			var iotps float64
			for i := 0; i < b.N; i++ {
				iotps = liveIngest(b, lsm.Options{}, buf, true)
			}
			b.ReportMetric(iotps, "IoTps")
		})
	}
}

// BenchmarkAblationPreSplit compares the pre-split table (one region per
// substation, the TPCx-IoT deployment practice) against a single region
// serving every substation.
func BenchmarkAblationPreSplit(b *testing.B) {
	for _, preSplit := range []bool{true, false} {
		b.Run(fmt.Sprintf("presplit=%v", preSplit), func(b *testing.B) {
			var iotps float64
			for i := 0; i < b.N; i++ {
				iotps = liveIngest(b, lsm.Options{}, 128<<10, preSplit)
			}
			b.ReportMetric(iotps, "IoTps")
		})
	}
}

// BenchmarkAblationBloomFilter measures point-read cost with and without
// table Bloom filters on a multi-file store.
func BenchmarkAblationBloomFilter(b *testing.B) {
	for _, bloom := range []int{0, -1} { // 0 = default filter, -1 = disabled
		name := "bloom=on"
		if bloom < 0 {
			name = "bloom=off"
		}
		b.Run(name, func(b *testing.B) {
			b.StopTimer()
			s, err := lsm.Open(lsm.Options{
				Dir:              b.TempDir(),
				WALSync:          wal.SyncNever,
				BloomBitsPerKey:  bloom,
				DisableAutoFlush: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// Five table files of distinct key ranges: absent-key reads
			// must consult each file unless the filter prunes it.
			for f := 0; f < 5; f++ {
				for i := 0; i < 2000; i++ {
					s.Put([]byte(fmt.Sprintf("f%d-%06d", f, i)), []byte("v"))
				}
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := s.Get([]byte(fmt.Sprintf("absent-%d", i))); err != nil || ok {
					b.Fatal("unexpected hit")
				}
			}
		})
	}
}

// BenchmarkAblationGroupCommit toggles the testbed's WAL-sync amortisation
// and reports S_2, the mechanism behind Figure 10's super-linear region.
func BenchmarkAblationGroupCommit(b *testing.B) {
	for _, amortize := range []float64{1.5, 0} {
		name := "groupcommit=on"
		if amortize == 0 {
			name = "groupcommit=off"
		}
		b.Run(name, func(b *testing.B) {
			p := testbed.DefaultParams()
			p.StallMeanInterval = 0
			p.SyncAmortize = amortize
			var s2 float64
			for i := 0; i < b.N; i++ {
				e1, err := testbed.Execute(testbed.Config{Nodes: 8, Substations: 1, TotalKVPs: 500_000, Seed: 7, Params: &p})
				if err != nil {
					b.Fatal(err)
				}
				e2, err := testbed.Execute(testbed.Config{Nodes: 8, Substations: 2, TotalKVPs: 1_000_000, Seed: 7, Params: &p})
				if err != nil {
					b.Fatal(err)
				}
				s2 = e2.IoTps() / e1.IoTps()
			}
			b.ReportMetric(s2, "S_2")
		})
	}
}

// BenchmarkAblationSerialFlush toggles the serial sub-RPC client and
// reports the 2-node/8-node single-substation ratio, the mechanism behind
// Table III's inversion.
func BenchmarkAblationSerialFlush(b *testing.B) {
	for _, parallel := range []bool{false, true} {
		name := "flush=serial"
		if parallel {
			name = "flush=parallel"
		}
		b.Run(name, func(b *testing.B) {
			p := testbed.DefaultParams()
			p.StallMeanInterval = 0
			p.ParallelFlush = parallel
			if parallel {
				p.PerRPCCost = 0
			}
			var ratio float64
			for i := 0; i < b.N; i++ {
				i2, err := testbed.Execute(testbed.Config{Nodes: 2, Substations: 1, TotalKVPs: 300_000, Seed: 7, Params: &p})
				if err != nil {
					b.Fatal(err)
				}
				i8, err := testbed.Execute(testbed.Config{Nodes: 8, Substations: 1, TotalKVPs: 300_000, Seed: 7, Params: &p})
				if err != nil {
					b.Fatal(err)
				}
				ratio = i2.IoTps() / i8.IoTps()
			}
			b.ReportMetric(ratio, "2node/8node")
		})
	}
}
