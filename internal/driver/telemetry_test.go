package driver

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// TestTelemetryEndToEnd runs a benchmark with a shared registry wired
// through the cluster and the driver, and verifies every layer reported:
// engine counters, put-path stage spans, query timers, op histograms, a
// per-interval time series, and the rendered report sections.
func TestTelemetryEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:    3,
		DataDir:  t.TempDir(),
		Store:    lsm.Options{WALSync: wal.SyncNever, MemtableSize: 64 << 10},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	sut, err := NewClusterSUT(cluster, 1, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	var logLines []string
	res, err := Run(Config{
		Drivers:            1,
		TotalKVPs:          6_000,
		ThreadsPerDriver:   2,
		Seed:               7,
		SUT:                sut,
		Iterations:         1,
		MinWorkloadSeconds: 0.001,
		Telemetry:          reg,
		TelemetryInterval:  20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			logLines = append(logLines, format)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The measured run carries a time series with real per-interval ops.
	series := res.Iterations[0].Measured.Series
	if series == nil || len(series.Points) == 0 {
		t.Fatal("measured run has no telemetry series")
	}
	var ops int64
	for _, p := range series.Points {
		ops += p.TotalOps()
	}
	if ops == 0 {
		t.Fatal("series recorded no operations")
	}

	// The registry summary holds the cumulative view across warmup and
	// measured runs.
	sum := res.Telemetry
	if sum == nil {
		t.Fatal("result has no telemetry summary")
	}
	// The iteration ran warmup + measured, 6000 readings each.
	if got := sum.Counter("wal.appends"); got == 0 {
		t.Fatalf("wal.appends = %d, want > 0", got)
	}
	if got := sum.Counter("replication.acks"); got < 3*2*6_000 {
		t.Fatalf("replication.acks = %d, want >= %d (3-way, warmup+measured)", got, 3*2*6_000)
	}
	if got := sum.Counter("hbase.buffer_flushes"); got == 0 {
		t.Fatal("no client buffer flushes counted")
	}
	if got := sum.Counter("lsm.flushes"); got == 0 {
		t.Fatal("no memtable flushes counted (64 KiB memtables must have rotated)")
	}
	// Per-stage put-path spans, in pipeline order.
	for _, stage := range []string{"put.client_flush", "put.wal_append", "put.memstore", "put.region_flush"} {
		snap, ok := sum.Histogram(stage)
		if !ok || snap.Count() == 0 {
			t.Fatalf("stage %s not measured", stage)
		}
	}
	// Op and query histograms from the ycsb/workload layers.
	if snap, ok := sum.Histogram("op.INSERT"); !ok || snap.Count() != 2*6_000 {
		t.Fatalf("op.INSERT count wrong: %+v ok=%v", snap.Count(), ok)
	}
	var queryTimed int64
	for _, h := range sum.Histograms {
		if strings.HasPrefix(h.Name, "query.") {
			queryTimed += h.Snap.Count()
		}
	}
	if queryTimed == 0 {
		t.Fatal("no dashboard queries timed")
	}

	// Report renders the telemetry sections and streams points via Logf.
	report := res.Report()
	for _, want := range []string{"Telemetry", "put.wal_append", "counters:", "time series"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	var sawPoint bool
	for _, l := range logLines {
		if strings.Contains(l, "telemetry") {
			sawPoint = true
		}
	}
	if !sawPoint {
		t.Fatal("no telemetry points streamed through Logf")
	}
}

// TestTelemetryDisabledIsInert verifies a nil registry leaves the run
// untouched: no series, no summary, no report section.
func TestTelemetryDisabledIsInert(t *testing.T) {
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:   3,
		DataDir: t.TempDir(),
		Store:   lsm.Options{WALSync: wal.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sut, err := NewClusterSUT(cluster, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Drivers: 1, TotalKVPs: 500, ThreadsPerDriver: 1, SUT: sut,
		Iterations: 1, MinWorkloadSeconds: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Fatal("telemetry summary present despite nil registry")
	}
	if res.Iterations[0].Measured.Series != nil {
		t.Fatal("series present despite nil registry")
	}
	if strings.Contains(res.Report(), "Telemetry\n") {
		t.Fatal("report renders telemetry section for an uninstrumented run")
	}
}

// TestWriteStallsReachAuditAndReport stalls a real store opened with a
// shared registry and region tags, and checks that the engine's stall
// counter ("lsm.stalls") reaches both of its readers: the auditor's
// interval signals and the report's per-region table.
func TestWriteStallsReachAuditAndReport(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := lsm.Open(lsm.Options{
		Dir:              t.TempDir(),
		WALSync:          wal.SyncNever,
		DisableAutoFlush: true,
		MaxStoreFiles:    2,
		Registry:         reg,
		Tags:             []telemetry.Tag{{Key: "region", Value: "iot,00000"}, {Key: "server", Value: "0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ticker := telemetry.NewTicker(reg, time.Hour, nil)
	ticker.Start()

	// A large table then a tiny one: their sizes are too far apart to form a
	// compaction tier, so the store sits at its two-file cap until a write
	// stalls and forces the backpressure merge.
	val := bytes.Repeat([]byte{'v'}, 512)
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte(fmt.Sprintf("big-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("tiny"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("stalled"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	stalls := s.Stats().StallEvents
	if stalls == 0 {
		t.Fatal("a write at the store-file cap did not stall")
	}

	series := ticker.Stop()
	if len(series.Points) != 1 {
		t.Fatalf("ticker emitted %d points, want 1", len(series.Points))
	}
	sig := strings.Join(audit.IntervalSignals(series.Points[0]), " ")
	if want := fmt.Sprintf("write_stalls=+%d", stalls); !strings.Contains(sig, want) {
		t.Fatalf("interval signals %q missing %q", sig, want)
	}

	var b strings.Builder
	writeRegionTable(&b, reg.Summary())
	var row []string
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[0] == "iot,00000" {
			row = f
		}
	}
	if row == nil || row[4] != fmt.Sprint(stalls) {
		t.Fatalf("region table stalls column = %v, want %d:\n%s", row, stalls, b.String())
	}
}
