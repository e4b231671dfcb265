// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (see DESIGN.md's per-experiment index). Simulated experiments
// report virtual-time metrics via b.ReportMetric — the interesting output
// is the custom IoTps/latency metrics, not ns/op. Volumes are scaled down
// so the full suite completes in minutes; rates are scale-free. Run
// cmd/experiments -full for full-scale regeneration with stall events.
package tpcxiot

import (
	"fmt"
	"os"
	"testing"
	"time"

	"tpcxiot/internal/driver"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/testbed"
	"tpcxiot/internal/wal"
	"tpcxiot/internal/workload"
	"tpcxiot/internal/ycsb"
)

// benchParams returns the stall-free model (stalls are physical-time events
// that only matter to multi-minute runs; they would add variance here).
func benchParams() *testbed.Params {
	p := testbed.DefaultParams()
	p.StallMeanInterval = 0
	return &p
}

// benchExecute runs one scaled simulated execution.
func benchExecute(b *testing.B, nodes, substations int, kvps int64) testbed.Execution {
	b.Helper()
	e, err := testbed.Execute(testbed.Config{
		Nodes:       nodes,
		Substations: substations,
		TotalKVPs:   kvps,
		Seed:        uint64(b.N), // vary per iteration; dynamics are stable
		Params:      benchParams(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkFig8DriverGeneration measures REAL kvp generation speed on this
// machine (the paper's /dev/null experiment) and reports kvps/s.
func BenchmarkFig8DriverGeneration(b *testing.B) {
	for _, threads := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			inst, err := workload.NewInstance(workload.InstanceConfig{
				Substation:     "substation-00000",
				Readings:       int64(b.N),
				Threads:        threads,
				Seed:           1,
				DisableQueries: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(1024)
			b.ResetTimer()
			start := time.Now()
			_, err = ycsb.Run(ycsb.RunConfig{Threads: threads},
				func(int) (ycsb.DB, error) { return discardDB{}, nil }, inst)
			if err != nil {
				b.Fatal(err)
			}
			if el := time.Since(start).Seconds(); el > 0 {
				b.ReportMetric(float64(inst.Stats().Inserted)/el, "kvps/s")
			}
		})
	}
}

// discardDB is the /dev/null binding.
type discardDB struct{}

func (discardDB) Insert(key, value []byte) error        { return nil }
func (discardDB) Read(key []byte) ([]byte, bool, error) { return nil, false, nil }
func (discardDB) ScanIter(lo, hi []byte, n int) (ycsb.RowIter, error) {
	return ycsb.SliceIter(nil), nil
}
func (discardDB) Close() error { return nil }

// BenchmarkTable1SubstationScaling regenerates Table I's rows: the 8-node
// substation sweep with system-wide and per-sensor rates.
func BenchmarkTable1SubstationScaling(b *testing.B) {
	for _, subs := range []int{1, 2, 4, 8, 16, 32, 48} {
		b.Run(fmt.Sprintf("substations=%d", subs), func(b *testing.B) {
			var last testbed.Execution
			for i := 0; i < b.N; i++ {
				last = benchExecute(b, 8, subs, 1_000_000)
			}
			b.ReportMetric(last.IoTps(), "IoTps")
			b.ReportMetric(last.PerSensorIoTps(subs), "IoTps/sensor")
		})
	}
}

// BenchmarkFig10SystemThroughput regenerates Figure 10: scaling factors S_i
// relative to one substation.
func BenchmarkFig10SystemThroughput(b *testing.B) {
	base := benchExecute(b, 8, 1, 500_000).IoTps()
	for _, subs := range []int{2, 4, 8, 16, 32, 48} {
		b.Run(fmt.Sprintf("S_%d", subs), func(b *testing.B) {
			var last testbed.Execution
			for i := 0; i < b.N; i++ {
				last = benchExecute(b, 8, subs, 1_000_000)
			}
			b.ReportMetric(last.IoTps()/base, "S_i")
		})
	}
}

// BenchmarkFig11PerSensorThroughput regenerates Figure 11: the per-sensor
// rate against the 20 kvps/s floor.
func BenchmarkFig11PerSensorThroughput(b *testing.B) {
	for _, subs := range []int{4, 32, 48} {
		b.Run(fmt.Sprintf("substations=%d", subs), func(b *testing.B) {
			var last testbed.Execution
			for i := 0; i < b.N; i++ {
				last = benchExecute(b, 8, subs, 1_000_000)
			}
			b.ReportMetric(last.PerSensorIoTps(subs), "IoTps/sensor")
		})
	}
}

// BenchmarkFig12QueryAggregates regenerates Figure 12: mean readings
// aggregated per query.
func BenchmarkFig12QueryAggregates(b *testing.B) {
	for _, subs := range []int{4, 16, 48} {
		b.Run(fmt.Sprintf("substations=%d", subs), func(b *testing.B) {
			var last testbed.Execution
			for i := 0; i < b.N; i++ {
				last = benchExecute(b, 8, subs, 1_000_000)
			}
			b.ReportMetric(last.AvgRowsPerQuery, "rows/query")
		})
	}
}

// BenchmarkFig13QueryLatency regenerates Figure 13: average query elapsed
// time across the sweep, in milliseconds of virtual time.
func BenchmarkFig13QueryLatency(b *testing.B) {
	for _, subs := range []int{2, 8, 16, 32} {
		b.Run(fmt.Sprintf("substations=%d", subs), func(b *testing.B) {
			var last testbed.Execution
			for i := 0; i < b.N; i++ {
				last = benchExecute(b, 8, subs, 1_000_000)
			}
			b.ReportMetric(last.QueryLatency.Mean()/1e6, "ms/query")
		})
	}
}

// BenchmarkFig14QueryLatencyDistribution regenerates Figure 14: latency
// min/max/CV/p95, with the stall model enabled on a longer virtual run.
func BenchmarkFig14QueryLatencyDistribution(b *testing.B) {
	for _, subs := range []int{16, 32} {
		b.Run(fmt.Sprintf("substations=%d", subs), func(b *testing.B) {
			var last testbed.Execution
			for i := 0; i < b.N; i++ {
				e, err := testbed.Execute(testbed.Config{
					Nodes: 8, Substations: subs, TotalKVPs: 20_000_000,
					Seed: uint64(i) + 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = e
			}
			q := last.QueryLatency
			b.ReportMetric(q.Mean()/1e6, "avg-ms")
			b.ReportMetric(float64(q.Max())/1e6, "max-ms")
			b.ReportMetric(q.CV(), "CV")
			b.ReportMetric(float64(q.Percentile(95))/1e6, "p95-ms")
		})
	}
}

// BenchmarkTable2IngestSkew regenerates Table II / Figure 15: the
// fastest-vs-slowest substation ingest spread.
func BenchmarkTable2IngestSkew(b *testing.B) {
	for _, subs := range []int{4, 16, 48} {
		b.Run(fmt.Sprintf("substations=%d", subs), func(b *testing.B) {
			var last testbed.Execution
			for i := 0; i < b.N; i++ {
				last = benchExecute(b, 8, subs, 1_000_000)
			}
			min, max, _ := last.IngestSkew()
			if min > 0 {
				b.ReportMetric(100*float64(max-min)/float64(min), "skew-%")
			}
		})
	}
}

// BenchmarkTable3ScaleOut regenerates Table III / Figure 16: the 2/4/8-node
// comparison, including the single-substation inversion and the crossover.
func BenchmarkTable3ScaleOut(b *testing.B) {
	for _, nodes := range []int{2, 4, 8} {
		for _, subs := range []int{1, 8, 48} {
			b.Run(fmt.Sprintf("nodes=%d/substations=%d", nodes, subs), func(b *testing.B) {
				var last testbed.Execution
				for i := 0; i < b.N; i++ {
					last = benchExecute(b, nodes, subs, 1_000_000)
				}
				b.ReportMetric(last.IoTps(), "IoTps")
			})
		}
	}
}

// BenchmarkLiveBenchmarkSmall runs the REAL benchmark end to end against
// the in-process mini-HBase cluster at laptop scale: actual LSM writes, WAL
// appends, replication, scans. Reports real IoTps.
func BenchmarkLiveBenchmarkSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "tpcxiot-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		cluster, err := hbase.NewCluster(hbase.Config{
			Nodes:   3,
			DataDir: dir,
			Store:   lsm.Options{WALSync: wal.SyncNever, MemtableSize: 32 << 20},
		})
		if err != nil {
			b.Fatal(err)
		}
		sut, err := driver.NewClusterSUT(cluster, 2, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		res, err := driver.Run(driver.Config{
			Drivers:            2,
			TotalKVPs:          10_000,
			ThreadsPerDriver:   4,
			SUT:                sut,
			Iterations:         1,
			MinWorkloadSeconds: 0.001,
			Seed:               uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IoTps(), "IoTps")

		b.StopTimer()
		cluster.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}
