package ycsb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpcxiot/internal/telemetry"
)

// fixedWorkload issues a fixed number of inserts per thread.
type fixedWorkload struct {
	perThread int
}

type fixedThread struct {
	id, done, quota int
}

func (w *fixedWorkload) NewThread(id, of int) ThreadWorkload {
	return &fixedThread{id: id, quota: w.perThread}
}

func (t *fixedThread) Next(db DB) (OpKind, bool, error) {
	if t.done >= t.quota {
		return 0, true, nil
	}
	t.done++
	key := []byte(fmt.Sprintf("t%d-%06d", t.id, t.done))
	return OpInsert, false, db.Insert(key, []byte("v"))
}

func TestRunCompletesAllThreads(t *testing.T) {
	db := NewMemDB()
	rep, err := Run(
		RunConfig{Threads: 4},
		func(int) (DB, error) { return db, nil },
		&fixedWorkload{perThread: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops[OpInsert] != 400 {
		t.Fatalf("ops = %d, want 400", rep.Ops[OpInsert])
	}
	if db.Len() != 400 {
		t.Fatalf("db has %d records", db.Len())
	}
	if len(rep.ThreadElapsed) != 4 {
		t.Fatalf("thread elapsed entries: %d", len(rep.ThreadElapsed))
	}
	for i, e := range rep.ThreadElapsed {
		if e <= 0 {
			t.Fatalf("thread %d elapsed %v", i, e)
		}
	}
	if rep.TotalOps() != 400 {
		t.Fatalf("TotalOps = %d", rep.TotalOps())
	}
	if rep.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
	if rep.Latencies[OpInsert].Count() != 400 {
		t.Fatal("latency histogram missing observations")
	}
}

func TestRunDefaultsToOneThread(t *testing.T) {
	rep, err := Run(RunConfig{}, func(int) (DB, error) { return NewMemDB(), nil },
		&fixedWorkload{perThread: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops[OpInsert] != 5 {
		t.Fatalf("ops = %d", rep.Ops[OpInsert])
	}
}

func TestRunRequiresBindingAndWorkload(t *testing.T) {
	if _, err := Run(RunConfig{}, nil, &fixedWorkload{}); err == nil {
		t.Fatal("nil binding accepted")
	}
	if _, err := Run(RunConfig{}, func(int) (DB, error) { return NewMemDB(), nil }, nil); err == nil {
		t.Fatal("nil workload accepted")
	}
}

// errWorkload fails on the Nth operation of thread 0.
type errWorkload struct {
	failAt int32
	count  atomic.Int32
}

func (w *errWorkload) NewThread(id, of int) ThreadWorkload { return (*errThread)(w) }

type errThread errWorkload

func (t *errThread) Next(db DB) (OpKind, bool, error) {
	n := t.count.Add(1)
	if n == t.failAt {
		return 0, false, errors.New("injected failure")
	}
	if n > 1000 {
		return 0, true, nil
	}
	return OpInsert, false, db.Insert([]byte(fmt.Sprintf("k%d", n)), []byte("v"))
}

func TestRunStopsOnWorkerError(t *testing.T) {
	w := &errWorkload{failAt: 50}
	rep, err := Run(RunConfig{Threads: 4}, func(int) (DB, error) { return NewMemDB(), nil }, w)
	if err == nil {
		t.Fatal("worker error not surfaced")
	}
	if rep.Err == nil {
		t.Fatal("report missing error")
	}
	// All threads must have stopped well short of their quotas.
	if total := w.count.Load(); total > 3000 {
		t.Fatalf("threads kept running after error: %d ops", total)
	}
}

func TestBindingErrorSurfaced(t *testing.T) {
	_, err := Run(RunConfig{Threads: 2},
		func(th int) (DB, error) {
			if th == 1 {
				return nil, errors.New("no connection")
			}
			return NewMemDB(), nil
		},
		&fixedWorkload{perThread: 10})
	if err == nil {
		t.Fatal("binding error not surfaced")
	}
}

func TestThrottleLimitsThroughput(t *testing.T) {
	rep, err := Run(
		RunConfig{Threads: 2, TargetOpsPerSec: 200},
		func(int) (DB, error) { return NewMemDB(), nil },
		&fixedWorkload{perThread: 30}, // 60 ops at 200/s => >= 300 ms
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed() < 250*time.Millisecond {
		t.Fatalf("throttled run finished in %v, want >= 250ms", rep.Elapsed())
	}
}

func TestPacedRunRecordsIntendedLatency(t *testing.T) {
	reg := telemetry.NewRegistry()
	rep, err := Run(
		RunConfig{Threads: 2, TargetOpsPerSec: 2000, Registry: reg},
		func(int) (DB, error) { return NewMemDB(), nil },
		&fixedWorkload{perThread: 50},
	)
	if err != nil {
		t.Fatal(err)
	}
	in, ok := rep.Intended[OpInsert]
	if !ok || in.Count() != 100 {
		t.Fatalf("intended distribution missing or short: %d obs", in.Count())
	}
	// Intended latency is measured from the scheduled start, which never
	// follows the actual start: every observation dominates its service
	// counterpart, so the distributions' means are ordered.
	if in.Mean() < rep.Latencies[OpInsert].Mean() {
		t.Fatalf("intended mean %.0fns below service mean %.0fns",
			in.Mean(), rep.Latencies[OpInsert].Mean())
	}
	// The registry carries the same split for the telemetry ticker.
	sum := reg.Summary()
	if snap, ok := sum.Histogram("intended.INSERT"); !ok || snap.Count() != 100 {
		t.Fatalf("registry intended.INSERT missing: ok=%v count=%d", ok, snap.Count())
	}
}

func TestUnpacedRunHasNoIntendedDistribution(t *testing.T) {
	rep, err := Run(RunConfig{Threads: 2},
		func(int) (DB, error) { return NewMemDB(), nil },
		&fixedWorkload{perThread: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Intended) != 0 {
		t.Fatalf("open-loop run recorded intended latency: %v", rep.Intended)
	}
}

// stallDB delays exactly one insert (the stallAt-th) by stallFor, leaving
// every other operation fast — the canonical coordinated-omission shape.
type stallDB struct {
	DB
	n        atomic.Int64
	stallAt  int64
	stallFor time.Duration
}

func (s *stallDB) Insert(key, value []byte) error {
	if s.n.Add(1) == s.stallAt {
		time.Sleep(s.stallFor)
	}
	return s.DB.Insert(key, value)
}

func TestIntendedLatencyExposesStall(t *testing.T) {
	// One thread paced at 1000 ops/s issues 600 ops; op 100 stalls 300 ms.
	// Exactly one op has a slow service time, but the fixed schedule puts
	// ~300 subsequent ops behind their intended starts, so the intended
	// distribution carries the backlog the service histogram hides: its
	// mean is dominated by the stall while the service median stays tiny.
	db := &stallDB{DB: NewMemDB(), stallAt: 100, stallFor: 300 * time.Millisecond}
	rep, err := Run(
		RunConfig{Threads: 1, TargetOpsPerSec: 1000},
		func(int) (DB, error) { return db, nil },
		&fixedWorkload{perThread: 600},
	)
	if err != nil {
		t.Fatal(err)
	}
	service := rep.Latencies[OpInsert]
	in := rep.Intended[OpInsert]
	if service.Percentile(50) > (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("service median %.2fms — stall leaked into unrelated ops",
			float64(service.Percentile(50))/1e6)
	}
	if in.Mean() < (30*time.Millisecond).Seconds()*1e9 {
		t.Fatalf("intended mean %.2fms too low — backlog not charged to the schedule",
			in.Mean()/1e6)
	}
	if in.Mean() < 10*float64(service.Percentile(50)) {
		t.Fatalf("intended mean %.2fms does not dominate service median %.2fms",
			in.Mean()/1e6, float64(service.Percentile(50))/1e6)
	}
}

func TestOpKindString(t *testing.T) {
	want := map[OpKind]string{
		OpInsert: "INSERT", OpRead: "READ", OpScan: "SCAN", OpQuery: "QUERY",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
	if OpKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestMemDBScanSemantics(t *testing.T) {
	db := NewMemDB()
	for i := 0; i < 10; i++ {
		db.Insert([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	rows, err := collect(db, []byte("k03"), []byte("k07"), 0)
	if err != nil || len(rows) != 4 {
		t.Fatalf("scan = %d rows, %v", len(rows), err)
	}
	if string(rows[0].Key) != "k03" || string(rows[3].Key) != "k06" {
		t.Fatalf("scan bounds wrong: %q..%q", rows[0].Key, rows[3].Key)
	}
	rows, _ = collect(db, []byte("k00"), nil, 3)
	if len(rows) != 3 {
		t.Fatalf("limited scan = %d rows", len(rows))
	}
	// Overwrite does not duplicate keys.
	db.Insert([]byte("k05"), []byte("new"))
	if db.Len() != 10 {
		t.Fatalf("overwrite changed Len to %d", db.Len())
	}
	v, ok, _ := db.Read([]byte("k05"))
	if !ok || string(v) != "new" {
		t.Fatalf("overwrite lost: %q", v)
	}
}

func TestCoreWorkloadMix(t *testing.T) {
	db := NewMemDB()
	w := &CoreWorkload{
		RecordCount:      1000,
		OperationCount:   3000,
		ReadProportion:   0.5,
		InsertProportion: 0.3,
		ScanProportion:   0.2,
		Zipfian:          true,
		Seed:             7,
	}
	if err := w.Load(db); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1000 {
		t.Fatalf("load phase stored %d records", db.Len())
	}
	rep, err := Run(RunConfig{Threads: 3}, func(int) (DB, error) { return db, nil }, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps() != 3000 {
		t.Fatalf("TotalOps = %d, want 3000", rep.TotalOps())
	}
	// Proportions should be roughly honoured.
	frac := func(k OpKind) float64 { return float64(rep.Ops[k]) / 3000 }
	if f := frac(OpRead); f < 0.42 || f > 0.58 {
		t.Fatalf("read fraction %.3f, want ~0.5", f)
	}
	if f := frac(OpInsert); f < 0.23 || f > 0.37 {
		t.Fatalf("insert fraction %.3f, want ~0.3", f)
	}
	if f := frac(OpScan); f < 0.14 || f > 0.26 {
		t.Fatalf("scan fraction %.3f, want ~0.2", f)
	}
	// Inserts grew the population and never collided with loaded keys.
	if int64(db.Len()) != 1000+rep.Ops[OpInsert] {
		t.Fatalf("db has %d records after %d inserts", db.Len(), rep.Ops[OpInsert])
	}
}

func TestCoreWorkloadQuotaSplit(t *testing.T) {
	// 10 ops across 4 threads: 3+3+2+2.
	w := &CoreWorkload{RecordCount: 10, OperationCount: 10, ReadProportion: 1, Seed: 1}
	db := NewMemDB()
	w.Load(db)
	rep, err := Run(RunConfig{Threads: 4}, func(int) (DB, error) { return db, nil }, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps() != 10 {
		t.Fatalf("TotalOps = %d, want exactly 10", rep.TotalOps())
	}
}

func TestStatusReporting(t *testing.T) {
	var mu sync.Mutex
	var snaps []Status
	_, err := Run(
		RunConfig{
			Threads:         2,
			TargetOpsPerSec: 2000, // stretch the run past a few intervals
			StatusInterval:  20 * time.Millisecond,
			Status: func(s Status) {
				mu.Lock()
				snaps = append(snaps, s)
				mu.Unlock()
			},
		},
		func(int) (DB, error) { return NewMemDB(), nil },
		&fixedWorkload{perThread: 120},
	)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no status snapshots delivered")
	}
	last := snaps[len(snaps)-1]
	if last.Total() == 0 || last.Ops[OpInsert] == 0 {
		t.Fatalf("status counters empty: %+v", last)
	}
	if last.Elapsed <= 0 {
		t.Fatal("status elapsed not positive")
	}
	if last.String() == "" {
		t.Fatal("empty status line")
	}
	// Counts must be monotone across snapshots.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Total() < snaps[i-1].Total() {
			t.Fatal("status counters went backwards")
		}
	}
}

func TestStatusDisabledByDefault(t *testing.T) {
	called := false
	_, err := Run(
		RunConfig{Threads: 1, Status: func(Status) { called = true }},
		func(int) (DB, error) { return NewMemDB(), nil },
		&fixedWorkload{perThread: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("status callback fired without an interval")
	}
}

// collect drains db.ScanIter over [lo, hi) with the given row limit,
// copying each row: a RowIter may lend its slices only until the next call.
func collect(db DB, lo, hi []byte, limit int) ([]KV, error) {
	it, err := db.ScanIter(lo, hi, limit)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var rows []KV
	for {
		kv, ok, err := it.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, KV{Key: append([]byte(nil), kv.Key...), Value: append([]byte(nil), kv.Value...)})
	}
}
