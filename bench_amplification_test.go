// Amplification microbenchmark for the byte-accounting ledger (PR 6) and
// the time-windowed compaction strategy (PR 7): sustained ingest through the
// real cluster with a deliberately small memtable, so flush and compaction
// traffic accumulates and the derived write-amplification factor is
// exercised end to end. Results are captured in results/BENCH_PR7.json; the
// CI bench-smoke job re-runs this and gates on benchdiff against that
// baseline.
package tpcxiot

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"tpcxiot/internal/hbase"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// drainIter calls fn with each live key of a just-opened store iterator and
// closes it, failing the benchmark on any open or iteration error.
func drainIter(b *testing.B, it *lsm.Iter, err error, fn func(key []byte)) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	defer it.Close()
	for ; it.Valid(); it.Next() {
		fn(it.Key())
	}
	if err := it.Error(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkClusterAmplification ingests a fixed 2000 rows of 1 KiB per op
// (so even -benchtime=1x is a sustained run with real flushes and
// compactions) into a 3-node, 3-way-replicated single-region table, swept
// across memtable sizes. The small memtable forces frequent flushes; the
// compaction trigger then folds the store files, and the reported metrics
// come from the cluster's storage ledger:
//
//	rows/s         end-to-end ingest rate
//	write_amp      (WAL + flush + compaction rewrite bytes) / logical bytes,
//	               summed over every replica — the headline ledger ratio
//	cache_hit_pct  block-cache hit rate of the closing read sweep's point
//	               gets (compaction reads bypass the cache)
//	bloom_fp_pct   Bloom false positives per filter consultation in the
//	               closing read sweep (present + absent keys)
//	debt_mb        compaction debt left at the end — bytes a full
//	               compaction would still rewrite
func BenchmarkClusterAmplification(b *testing.B) {
	value := bytes.Repeat([]byte("x"), 1024)
	const keyLen = 15 // len("row############")
	const rowsPerOp = 2000
	rowBytes := int64(keyLen) + int64(len(value))

	for _, mt := range []struct {
		name string
		size int64
	}{
		{"256k", 256 << 10},
		{"1m", 1 << 20},
	} {
		b.Run(fmt.Sprintf("memtable=%s", mt.name), func(b *testing.B) {
			dir, err := os.MkdirTemp("", "tpcxiot-amp-*")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			reg := telemetry.NewRegistry()
			cluster, err := hbase.NewCluster(hbase.Config{
				Nodes:   3,
				DataDir: dir,
				Store: lsm.Options{
					WALSync:        wal.SyncOnRotate,
					MemtableSize:   mt.size,
					CompactTrigger: 4,
				},
				Registry: reg,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			if _, err := cluster.CreateTable("amp", nil); err != nil {
				b.Fatal(err)
			}
			client, err := cluster.NewClient("amp", 64*rowBytes)
			if err != nil {
				b.Fatal(err)
			}

			b.SetBytes(rowBytes * rowsPerOp)
			b.ResetTimer()
			row := 0
			for i := 0; i < b.N; i++ {
				for j := 0; j < rowsPerOp; j++ {
					key := fmt.Sprintf("row%012d", row)
					row++
					if err := client.Put([]byte(key), value); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := client.FlushCommits(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()

			// Settle every replica — drain the quorum pipeline's catch-up
			// queues, synchronous flush, then a full compaction — so the
			// ledger reflects the whole ingest rather than whatever the
			// background workers got to, and write_amp is stable enough to
			// gate on in CI.
			if err := cluster.Quiesce(); err != nil {
				b.Fatal(err)
			}
			for _, srv := range cluster.Servers() {
				for _, r := range srv.Regions() {
					if err := r.Flush(); err != nil {
						b.Fatal(err)
					}
					if err := r.Store().Compact(); err != nil {
						b.Fatal(err)
					}
				}
			}

			// Closing read sweep: present and absent keys, so the Bloom and
			// cache counters see the point-read path too.
			for j := 0; j < 500; j++ {
				key := fmt.Sprintf("row%012d", j*(row/500+1)%row)
				if _, _, err := client.Get([]byte(key)); err != nil {
					b.Fatal(err)
				}
				miss := fmt.Sprintf("nox%012d", j)
				if _, _, err := client.Get([]byte(miss)); err != nil {
					b.Fatal(err)
				}
			}

			st := cluster.Storage()
			b.ReportMetric(st.WriteAmplification, "write_amp")
			b.ReportMetric(st.CacheHitRate*100, "cache_hit_pct")
			b.ReportMetric(st.BloomFalsePositiveRate*100, "bloom_fp_pct")
			b.ReportMetric(float64(st.Totals.CompactionDebtBytes)/(1<<20), "debt_mb")
			if el := b.Elapsed().Seconds(); el > 0 {
				b.ReportMetric(float64(b.N)*rowsPerOp/el, "rows/s")
			}
		})
	}

	// Windowed variants: the same data volume as benchmark-shaped kvp keys
	// whose timestamps advance in ingest order, settled with CompactPending
	// (the windowed picker) instead of a full rewrite. Ingest spans many
	// compaction windows, so windows go cold behind the write front and are
	// merged at most once — settled write amplification stays near the
	// WAL+flush floor of 2 instead of paying a whole-store rewrite. The
	// closing read compares a cold-window time-range scan against the
	// unpruned full scan: timescan_read_kb vs fullscan_read_kb is the I/O
	// the per-file time bounds save.
	for _, mt := range []struct {
		name string
		size int64
	}{
		{"256k", 256 << 10},
		{"1m", 1 << 20},
	} {
		b.Run(fmt.Sprintf("settle=windowed/memtable=%s", mt.name), func(b *testing.B) {
			dir, err := os.MkdirTemp("", "tpcxiot-amp-*")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			reg := telemetry.NewRegistry()
			cluster, err := hbase.NewCluster(hbase.Config{
				Nodes:   3,
				DataDir: dir,
				Store: lsm.Options{
					WALSync:        wal.SyncOnRotate,
					MemtableSize:   mt.size,
					CompactTrigger: 4,
					// One-second windows against a 4 ms/row timestamp
					// cadence: a 256 KiB memtable flushes roughly once per
					// window, so windows settle with little or no rewrite.
					WindowDuration: time.Second,
					// A tiny block cache keeps the closing scan comparison
					// an I/O measurement rather than a cache-hit one.
					BlockCacheBytes: 64 << 10,
				},
				Registry: reg,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			if _, err := cluster.CreateTable("amp", nil); err != nil {
				b.Fatal(err)
			}
			client, err := cluster.NewClient("amp", 64*rowBytes)
			if err != nil {
				b.Fatal(err)
			}

			const sensors = 8
			key := func(row int) []byte {
				return kvp.Key{
					Substation: "subst01",
					Sensor:     fmt.Sprintf("sens%02d", row%sensors),
					Timestamp:  int64(row) * 4,
				}.Encode()
			}
			b.SetBytes(rowBytes * rowsPerOp)
			b.ResetTimer()
			row := 0
			for i := 0; i < b.N; i++ {
				for j := 0; j < rowsPerOp; j++ {
					if err := client.Put(key(row), value); err != nil {
						b.Fatal(err)
					}
					row++
				}
			}
			if err := client.FlushCommits(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()

			// Settle through the windowed picker: cold windows merge to one
			// table each, the hot window keeps its sub-trigger tables, and
			// settled cold windows are never rewritten.
			if err := cluster.Quiesce(); err != nil {
				b.Fatal(err)
			}
			for _, srv := range cluster.Servers() {
				for _, r := range srv.Regions() {
					if err := r.Flush(); err != nil {
						b.Fatal(err)
					}
					if err := r.Store().CompactPending(); err != nil {
						b.Fatal(err)
					}
				}
			}

			// Cold-window time-range scan vs the unpruned full scan over the
			// same entries. The time-range scan runs first, so any block-cache
			// warming biases against the pruned path — the saving is a floor.
			const coldLo, coldHi = 0, 1000
			st0 := cluster.Storage().Totals
			pruned := 0
			for _, srv := range cluster.Servers() {
				for _, r := range srv.Regions() {
					it, err := r.Store().NewIteratorTime(nil, nil, coldLo, coldHi)
					drainIter(b, it, err, func(k []byte) { pruned++ })
				}
			}
			st1 := cluster.Storage().Totals
			full := 0
			for _, srv := range cluster.Servers() {
				for _, r := range srv.Regions() {
					it, err := r.Store().NewIterator(nil, nil)
					drainIter(b, it, err, func(k []byte) {
						if ts, ok := kvp.TimestampOf(k); ok && ts >= coldLo && ts < coldHi {
							full++
						}
					})
				}
			}
			st2 := cluster.Storage().Totals
			if pruned != full {
				b.Fatalf("time-range scan found %d rows, filtered full scan %d", pruned, full)
			}

			st := cluster.Storage()
			windows := 0
			for _, rg := range st.Regions {
				windows += len(rg.Tiers)
			}
			b.ReportMetric(st.WriteAmplification, "write_amp")
			b.ReportMetric(float64(st.Totals.CompactionDebtBytes)/(1<<20), "debt_mb")
			b.ReportMetric(float64(windows)/float64(len(st.Regions)), "windows")
			b.ReportMetric(float64(st1.DiskReadBytes-st0.DiskReadBytes)/1024, "timescan_read_kb")
			b.ReportMetric(float64(st2.DiskReadBytes-st1.DiskReadBytes)/1024, "fullscan_read_kb")
			if el := b.Elapsed().Seconds(); el > 0 {
				b.ReportMetric(float64(b.N)*rowsPerOp/el, "rows/s")
			}
		})
	}
}
