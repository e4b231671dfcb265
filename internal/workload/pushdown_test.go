package workload

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/wal"
	"tpcxiot/internal/ycsb"
)

// newAggStoreDB opens an embedded LSM store binding (which implements
// ycsb.Aggregator) seeded with random kvp rows for one sensor.
func newAggStoreDB(t *testing.T, sub, sensor string, base time.Time, n int, spanMS int64) ycsb.DB {
	t.Helper()
	s, err := lsm.Open(lsm.Options{Dir: t.TempDir(), WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	db, err := StoreBinding(s)(0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		ts := base.UnixMilli() + rng.Int63n(spanMS)
		reading := strconv.FormatFloat(math.Round(rng.Float64()*1e4)/100, 'f', 2, 64)
		k := kvp.Key{Substation: sub, Sensor: sensor, Timestamp: ts}
		pad, err := kvp.PaddingFor(k, reading, "volt")
		if err != nil {
			t.Fatal(err)
		}
		v := kvp.Value{Reading: reading, Unit: "volt", Padding: bytes.Repeat([]byte("p"), pad)}
		if err := db.Insert(k.Encode(), v.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestRunQueryPushdownMatchesStreamed: for every dashboard template, the
// pushed-down query must agree with the streamed RunQuery on the fields the
// template reads — row counts, the template's statistic, and Value().
func TestRunQueryPushdownMatchesStreamed(t *testing.T) {
	sub, sensor := "ps", "pmu-freq-000"
	base := time.UnixMilli(1_700_000_000_000)
	db := newAggStoreDB(t, sub, sensor, base, 500, 100_000)
	if _, ok := db.(ycsb.Aggregator); !ok {
		t.Fatal("store binding must implement ycsb.Aggregator")
	}
	now := base.Add(100 * time.Second)
	histStart := base.Add(20 * time.Second)

	for kind := QueryKind(0); kind < dashboardKinds; kind++ {
		streamed, err := RunQuery(db, kind, sub, sensor, now, histStart)
		if err != nil {
			t.Fatal(err)
		}
		pushed, err := RunQueryPushdown(db, kind, sub, sensor, now, histStart)
		if err != nil {
			t.Fatal(err)
		}
		if pushed.Recent.Rows != streamed.Recent.Rows ||
			pushed.Historical.Rows != streamed.Historical.Rows {
			t.Fatalf("%v rows: pushed %d/%d, streamed %d/%d", kind,
				pushed.Recent.Rows, pushed.Historical.Rows,
				streamed.Recent.Rows, streamed.Historical.Rows)
		}
		if streamed.Recent.Rows == 0 {
			t.Fatalf("%v: recent interval empty; test data broken", kind)
		}
		check := func(name string, got, want float64) {
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%v %s: pushed %g, streamed %g", kind, name, got, want)
			}
		}
		switch kind {
		case QueryMax:
			check("recent max", pushed.Recent.Max, streamed.Recent.Max)
			check("hist max", pushed.Historical.Max, streamed.Historical.Max)
		case QueryMin:
			check("recent min", pushed.Recent.Min, streamed.Recent.Min)
			check("hist min", pushed.Historical.Min, streamed.Historical.Min)
		case QueryAvg:
			check("recent avg", pushed.Recent.Avg, streamed.Recent.Avg)
			check("hist avg", pushed.Historical.Avg, streamed.Historical.Avg)
		}
		check("value", pushed.Value(), streamed.Value())
	}
}

// TestRunQueryPushdownFallsBack: a binding without the Aggregator capability
// must be served by the streamed path transparently.
func TestRunQueryPushdownFallsBack(t *testing.T) {
	var db ycsb.DB = ycsb.NewMemDB()
	if _, ok := db.(ycsb.Aggregator); ok {
		t.Fatal("memdb unexpectedly implements Aggregator; pick another fallback DB")
	}
	sub, sensor := "ps", "s0"
	base := time.UnixMilli(1_700_000_000_000)
	k := kvp.Key{Substation: sub, Sensor: sensor, Timestamp: base.UnixMilli() - 1000}
	pad, _ := kvp.PaddingFor(k, "5.00", "volt")
	v := kvp.Value{Reading: "5.00", Unit: "volt", Padding: bytes.Repeat([]byte("p"), pad)}
	if err := db.Insert(k.Encode(), v.Encode()); err != nil {
		t.Fatal(err)
	}
	res, err := RunQueryPushdown(db, QueryAvg, sub, sensor, base, base.Add(-time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if res.Recent.Rows != 1 || res.Recent.Avg != 5 {
		t.Fatalf("fallback result = %+v, want 1 row avg 5", res.Recent)
	}
}

// TestRunWindowQueryParity: the pushed-down multi-window path and the
// streamed client-side fold must produce identical windows — same series,
// starts, counts, extrema and sums — and the same rowsFolded.
func TestRunWindowQueryParity(t *testing.T) {
	sub, sensor := "ps", "pmu-freq-000"
	base := time.UnixMilli(1_700_000_000_000)
	db := newAggStoreDB(t, sub, sensor, base, 300, 60_000)

	minTS := base.UnixMilli()
	maxTS := minTS + 60_000
	for _, windowMS := range []int64{0, 1000, 7000} {
		funcs := ycsb.AggCount | ycsb.AggMin | ycsb.AggMax | ycsb.AggSum | ycsb.AggAvg
		pushed, pFolded, err := RunWindowQuery(db, sub, sensor, minTS, maxTS, windowMS, funcs, true)
		if err != nil {
			t.Fatal(err)
		}
		streamed, sFolded, err := RunWindowQuery(db, sub, sensor, minTS, maxTS, windowMS, funcs, false)
		if err != nil {
			t.Fatal(err)
		}
		if pFolded != sFolded || len(pushed) != len(streamed) {
			t.Fatalf("window %dms: pushed %d rows / %d windows, streamed %d / %d",
				windowMS, pFolded, len(pushed), sFolded, len(streamed))
		}
		if pFolded == 0 {
			t.Fatalf("window %dms folded no rows", windowMS)
		}
		for i := range streamed {
			p, s := pushed[i], streamed[i]
			if !bytes.Equal(p.Series, s.Series) || p.WindowStart != s.WindowStart ||
				p.Count != s.Count || p.Min != s.Min || p.Max != s.Max ||
				math.Abs(p.Sum-s.Sum) > 1e-6 || math.Abs(p.Avg()-s.Avg()) > 1e-9 {
				t.Fatalf("window %dms #%d:\n pushed   %+v\n streamed %+v", windowMS, i, p, s)
			}
		}
	}

	// Count-only masks the value fields in both paths equally.
	pushed, _, err := RunWindowQuery(db, sub, sensor, minTS, maxTS, 5000, ycsb.AggCount, true)
	if err != nil {
		t.Fatal(err)
	}
	streamed, _, err := RunWindowQuery(db, sub, sensor, minTS, maxTS, 5000, ycsb.AggCount, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range streamed {
		if pushed[i].Count != streamed[i].Count {
			t.Fatalf("count-only window %d: pushed %d, streamed %d",
				i, pushed[i].Count, streamed[i].Count)
		}
	}
}

// TestSequencerUniqueAcrossExecutions is the timestamp-collision regression:
// two workload executions (fresh Instances) sharing one Sequencer against
// the same store must never overwrite each other's keys, even under a clock
// that barely advances — the condition that used to alias keys because each
// execution restarted from the wall clock.
func TestSequencerUniqueAcrossExecutions(t *testing.T) {
	s, err := lsm.Open(lsm.Options{Dir: t.TempDir(), WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const perRun = 3000
	seq := NewSequencer()
	// A near-frozen clock: advances far slower than the ingest rate, so
	// within a run threads outrun it and across runs the wall clock has not
	// caught up with the bumped timestamps — the old collision trigger.
	clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Microsecond/10)
	for run := 0; run < 2; run++ {
		inst, err := NewInstance(InstanceConfig{
			Substation:     "substation-00000",
			Readings:       perRun,
			Seed:           uint64(run + 1),
			Now:            clock.Now,
			Sequencer:      seq,
			DisableQueries: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ycsb.Run(ycsb.RunConfig{Threads: 4}, StoreBinding(s), inst); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := collect(storeDB{s}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if count := len(rows); count != 2*perRun {
		t.Fatalf("store holds %d rows after two %d-row executions: %d keys collided",
			count, perRun, 2*perRun-count)
	}
}

// TestNextTimestampMonotonic pins the sequencing rule itself:
// next = max(wall, last+1), per (substation, sensor).
func TestNextTimestampMonotonic(t *testing.T) {
	seq := NewSequencer()
	c := seq.counter("ps", "s0")
	last := int64(0)
	for i := 0; i < 1000; i++ {
		wall := int64(500) // frozen wall clock
		ts := nextTimestamp(c, wall)
		if ts <= last {
			t.Fatalf("timestamp %d not monotonic after %d", ts, last)
		}
		last = ts
	}
	// A wall clock ahead of the counter wins.
	if ts := nextTimestamp(c, 1_000_000); ts != 1_000_000 {
		t.Fatalf("wall-clock jump: got %d, want 1000000", ts)
	}
	// Same sensor key resolves to the same cell.
	if seq.counter("ps", "s0") != c {
		t.Fatal("counter not shared for the same (substation, sensor)")
	}
	if seq.counter("ps", "s1") == c {
		t.Fatal("distinct sensors share a cell")
	}
}

// TestAnalyticTemplatesRun exercises the downsample and window-count
// templates through a full instance run with Analytics (and Pushdown) on:
// analytic counters tick, and the dashboard validity statistics stay
// untouched by analytic work.
func TestAnalyticTemplatesRun(t *testing.T) {
	s, err := lsm.Open(lsm.Options{Dir: t.TempDir(), WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Millisecond)
	inst, err := NewInstance(InstanceConfig{
		Substation: "substation-00000",
		Readings:   20_000,
		Seed:       3,
		Now:        clock.Now,
		Analytics:  true,
		Pushdown:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ycsb.Run(ycsb.RunConfig{Threads: 2}, StoreBinding(s), inst); err != nil {
		t.Fatal(err)
	}
	st := inst.Stats()
	if st.AnalyticQueries == 0 {
		t.Fatal("no analytic queries ran with Analytics enabled")
	}
	if st.AnalyticWindows == 0 {
		t.Fatal("analytic queries returned no windows")
	}
	if st.Queries == 0 {
		t.Fatal("dashboard queries stopped running alongside analytics")
	}
	if st.PushdownRows == 0 {
		t.Fatal("pushdown ran no server-side folds")
	}
	// The Figure 12 validity metric must count only dashboard intervals.
	if st.AvgRowsPerQuery() == 0 {
		t.Fatal("AvgRowsPerQuery is zero; analytic work may have perturbed it")
	}
}

// TestAnalyticsOffKeepsDashboardRotation: without Analytics the rotation
// must stay the four dashboard templates only.
func TestAnalyticsOffKeepsDashboardRotation(t *testing.T) {
	s, err := lsm.Open(lsm.Options{Dir: t.TempDir(), WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Millisecond)
	inst, err := NewInstance(InstanceConfig{
		Substation: "substation-00000",
		Readings:   8_000,
		Seed:       4,
		Now:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ycsb.Run(ycsb.RunConfig{Threads: 2}, StoreBinding(s), inst); err != nil {
		t.Fatal(err)
	}
	st := inst.Stats()
	if st.AnalyticQueries != 0 {
		t.Fatalf("analytic queries ran with Analytics off: %d", st.AnalyticQueries)
	}
	if st.PushdownRows != 0 {
		t.Fatalf("PushdownRows = %d with Pushdown off", st.PushdownRows)
	}
	if st.Queries == 0 {
		t.Fatal("no dashboard queries ran")
	}
}
