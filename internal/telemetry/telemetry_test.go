package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterNilSafety(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if got := c.Load(); got != 0 {
		t.Fatalf("nil counter Load = %d, want 0", got)
	}

	var r *Registry
	if r.Counter("x") != nil {
		t.Fatal("nil registry must hand out nil counters")
	}
	if r.Timer("x") != nil {
		t.Fatal("nil registry must hand out nil timers")
	}
	r.Gauge("g", func() int64 { return 1 })
	if r.Counters() != nil || r.Gauges() != nil || r.Histograms() != nil {
		t.Fatal("nil registry snapshots must be nil")
	}
	if r.Summary() != nil {
		t.Fatal("nil registry summary must be nil")
	}
	// Inert span from a nil timer must be endable.
	r.Timer("x").Start().End()
}

func TestRegistryCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("lsm.flushes")
	b := r.Counter("lsm.flushes")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Add(2)
	b.Inc()
	if got := r.Counter("lsm.flushes").Load(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

func TestRegistrySnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	// Register in non-sorted order; snapshots must come back sorted.
	for _, name := range []string{"wal.syncs", "lsm.flushes", "wal.appends", "hbase.buffer_flushes"} {
		r.Counter(name).Inc()
	}
	first := r.Counters()
	for i := 0; i < 10; i++ {
		again := r.Counters()
		if len(again) != len(first) {
			t.Fatalf("snapshot length changed: %d vs %d", len(again), len(first))
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatalf("snapshot order not deterministic: %v vs %v", again, first)
			}
		}
	}
	want := []string{"hbase.buffer_flushes", "lsm.flushes", "wal.appends", "wal.syncs"}
	for i, v := range first {
		if v.Name != want[i] {
			t.Fatalf("snapshot[%d] = %q, want %q (sorted order)", i, v.Name, want[i])
		}
	}
}

func TestGaugeSumsRegistrations(t *testing.T) {
	r := NewRegistry()
	r.Gauge("lsm.memtable_bytes", func() int64 { return 100 })
	r.Gauge("lsm.memtable_bytes", func() int64 { return 42 })
	gs := r.Gauges()
	if len(gs) != 1 || gs[0].Name != "lsm.memtable_bytes" || gs[0].Value != 142 {
		t.Fatalf("gauges = %v, want one summed entry of 142", gs)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("wal.appends").Inc()
				r.Counter("wal.bytes").Add(10)
				_ = r.Counters()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("wal.appends").Load(); got != 8000 {
		t.Fatalf("wal.appends = %d, want 8000", got)
	}
	if got := r.Counter("wal.bytes").Load(); got != 80000 {
		t.Fatalf("wal.bytes = %d, want 80000", got)
	}
}

func TestTimerRecordsSpans(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("put.wal_append")
	for i := 0; i < 5; i++ {
		sp := tm.Start()
		time.Sleep(time.Millisecond)
		sp.End()
	}
	r.Timer("put.wal_append").Start().End()
	snap, ok := r.Summary().Histogram("put.wal_append")
	if !ok {
		t.Fatal("span histogram missing from summary")
	}
	if snap.Count() != 6 {
		t.Fatalf("span count = %d, want 6", snap.Count())
	}
	if snap.Percentile(95) < int64(time.Millisecond)/2 {
		t.Fatalf("p95 = %dns, expected at least ~1ms from the slept spans", snap.Percentile(95))
	}
}

func TestTickerEmitsIntervalSeries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op.INSERT")
	flushes := r.Counter("lsm.flushes")
	r.Gauge("lsm.memtable_bytes", func() int64 { return 512 })

	// Pre-ticker activity must be excluded by the baseline.
	h.Record(1e6)
	flushes.Inc()

	var streamed []Point
	var mu sync.Mutex
	tk := NewTicker(r, 20*time.Millisecond, func(p Point) {
		mu.Lock()
		streamed = append(streamed, p)
		mu.Unlock()
	})
	tk.Start()
	for i := 0; i < 100; i++ {
		h.Record(int64(i+1) * 1e5)
	}
	flushes.Add(3)
	time.Sleep(50 * time.Millisecond)
	series := tk.Stop()

	if len(series.Points) == 0 {
		t.Fatal("no points emitted")
	}
	var ops, ctr int64
	for _, p := range series.Points {
		for _, o := range p.Ops {
			if o.Name != "op.INSERT" {
				t.Fatalf("unexpected op %q", o.Name)
			}
			ops += o.Count
			if o.P50 <= 0 || o.P95 < o.P50 || o.P99 < o.P95 {
				t.Fatalf("bad interval percentiles: %+v", o)
			}
		}
		for _, c := range p.Counters {
			if c.Name == "lsm.flushes" {
				ctr += c.Value
			}
		}
		if len(p.Gauges) != 1 || p.Gauges[0].Value != 512 {
			t.Fatalf("gauges = %v, want lsm.memtable_bytes=512", p.Gauges)
		}
	}
	if ops != 100 {
		t.Fatalf("interval op counts sum to %d, want 100 (baseline must exclude pre-start records)", ops)
	}
	if ctr != 3 {
		t.Fatalf("interval counter deltas sum to %d, want 3", ctr)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(streamed) != len(series.Points) {
		t.Fatalf("onPoint saw %d points, series has %d", len(streamed), len(series.Points))
	}
}

func TestTickerTailPoint(t *testing.T) {
	r := NewRegistry()
	tk := NewTicker(r, time.Hour, nil) // period far longer than the run
	tk.Start()
	r.Histogram("op.QUERY").Record(2e6)
	series := tk.Stop()
	if len(series.Points) != 1 {
		t.Fatalf("want exactly one tail point, got %d", len(series.Points))
	}
	if got := series.Points[0].Ops[0].Count; got != 1 {
		t.Fatalf("tail point count = %d, want 1", got)
	}

	// A run with zero activity yields an empty series, not a zero point.
	tk2 := NewTicker(r, time.Hour, nil)
	tk2.Start()
	if s := tk2.Stop(); len(s.Points) != 0 {
		t.Fatalf("idle ticker emitted %d points, want 0", len(s.Points))
	}
}

func TestSeriesCompleteExcludesPartialTail(t *testing.T) {
	point := func(interval time.Duration, count int64) Point {
		return Point{
			Interval: interval,
			Ops:      []OpPoint{{Name: "op.INSERT", Count: count}},
		}
	}
	s := &Series{
		Interval: time.Second,
		Points: []Point{
			point(time.Second, 1000),
			point(1100*time.Millisecond, 1200), // ticker fired late: still complete
			point(time.Second, 800),
			point(100*time.Millisecond, 30), // Stop/Snapshot tail: partial
		},
	}
	if got := len(s.Complete()); got != 3 {
		t.Fatalf("Complete() = %d points, want 3 (tail excluded)", got)
	}
	// PeakRate must not report the 300 ops/s tail as the trough.
	peak, trough := s.PeakRate()
	if trough != 800 {
		t.Fatalf("trough = %.1f, want 800 (partial tail must not count)", trough)
	}
	if want := 1200 / 1.1; peak < want-1 || peak > want+1 {
		t.Fatalf("peak = %.1f, want ~%.1f", peak, want)
	}

	// All-partial series: nothing to summarise.
	empty := &Series{Interval: time.Second, Points: []Point{point(50*time.Millisecond, 5)}}
	if p, tr := empty.PeakRate(); p != 0 || tr != 0 {
		t.Fatalf("all-partial series PeakRate = %v, %v; want zeros", p, tr)
	}
}

func TestSeriesCSV(t *testing.T) {
	r := NewRegistry()
	tk := NewTicker(r, time.Hour, nil)
	tk.Start()
	r.Histogram("op.INSERT").Record(5e5)
	r.Counter("wal.appends").Add(7)
	series := tk.Stop()

	var b strings.Builder
	if err := series.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "elapsed_seconds,metric,events,") {
		t.Fatalf("missing CSV header:\n%s", out)
	}
	if !strings.Contains(out, "op.INSERT,1,") {
		t.Fatalf("missing op row:\n%s", out)
	}
	if !strings.Contains(out, "wal.appends,7,") {
		t.Fatalf("missing counter row:\n%s", out)
	}
}

func TestPointString(t *testing.T) {
	p := Point{
		Elapsed:  10 * time.Second,
		Interval: time.Second,
		Ops:      []OpPoint{{Name: "op.INSERT", Count: 500, P50: 8e5, P95: 19e5, P99: 31e5}},
	}
	s := p.String()
	for _, want := range []string{"10.0s", "500 ops", "op.INSERT", "p95=1.9ms"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Point.String() = %q, missing %q", s, want)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("lsm.flushes").Add(4)
	r.Gauge("lsm.memtable_bytes", func() int64 { return 99 })
	r.Histogram("op.INSERT").Record(1e6)

	mux := NewServeMux(r)
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
			P95   int64 `json:"p95_ns"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Counters["lsm.flushes"] != 4 {
		t.Fatalf("counters = %v", doc.Counters)
	}
	if doc.Gauges["lsm.memtable_bytes"] != 99 {
		t.Fatalf("gauges = %v", doc.Gauges)
	}
	if h := doc.Histograms["op.INSERT"]; h.Count != 1 || h.P95 <= 0 {
		t.Fatalf("histograms = %v", doc.Histograms)
	}

	// pprof index must be mounted.
	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec2.Code != 200 {
		t.Fatalf("GET /debug/pprof/ = %d", rec2.Code)
	}
}
