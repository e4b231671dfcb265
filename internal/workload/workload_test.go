package workload

import (
	"strings"
	"testing"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/sensors"
	"tpcxiot/internal/ycsb"
)

// virtualClock advances a fixed amount per call, so tests are deterministic
// and "time" passes fast enough for interval queries to see data.
type virtualClock struct {
	mu   chan struct{}
	now  time.Time
	step time.Duration
}

func newVirtualClock(start time.Time, step time.Duration) *virtualClock {
	c := &virtualClock{mu: make(chan struct{}, 1), now: start, step: step}
	c.mu <- struct{}{}
	return c
}

func (c *virtualClock) Now() time.Time {
	<-c.mu
	c.now = c.now.Add(c.step)
	t := c.now
	c.mu <- struct{}{}
	return t
}

func TestKVPShare(t *testing.T) {
	// Equation 3: every instance gets floor(K/P); the last also takes the
	// remainder.
	cases := []struct {
		k    int64
		p    int
		want []int64
	}{
		{10, 3, []int64{3, 3, 4}},
		{9, 3, []int64{3, 3, 3}},
		{1000000007, 4, []int64{250000001, 250000001, 250000001, 250000004}},
		{5, 1, []int64{5}},
	}
	for _, tc := range cases {
		var total int64
		for i := 1; i <= tc.p; i++ {
			got := KVPShare(tc.k, tc.p, i)
			if got != tc.want[i-1] {
				t.Fatalf("KVPShare(%d,%d,%d) = %d, want %d", tc.k, tc.p, i, got, tc.want[i-1])
			}
			total += got
		}
		if total != tc.k {
			t.Fatalf("shares of K=%d sum to %d", tc.k, total)
		}
	}
	if KVPShare(10, 0, 1) != 0 || KVPShare(10, 3, 0) != 0 || KVPShare(10, 3, 4) != 0 {
		t.Fatal("out-of-range arguments should yield 0")
	}
}

func TestSubstationNames(t *testing.T) {
	names := SubstationNames(3)
	if len(names) != 3 || names[0] != "substation-00000" || names[2] != "substation-00002" {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if len(n) > kvp.MaxSubstationKeyLen {
			t.Fatalf("name %q too long", n)
		}
	}
}

func TestSplitKeysSeparateSubstations(t *testing.T) {
	names := SubstationNames(4)
	splits := SplitKeys(names)
	if len(splits) != 3 {
		t.Fatalf("%d splits for 4 substations", len(splits))
	}
	// Any key of substation i must sort below the split for substation i+1.
	for i := 0; i < 3; i++ {
		k := kvp.Key{Substation: names[i], Sensor: "zzz", Timestamp: 1 << 40}.Encode()
		if kvp.Compare(k, splits[i]) >= 0 {
			t.Fatalf("substation %d key crosses split %d", i, i)
		}
		k2 := kvp.Key{Substation: names[i+1], Sensor: "aaa", Timestamp: 0}.Encode()
		if kvp.Compare(k2, splits[i]) < 0 {
			t.Fatalf("substation %d key sorts below its region start", i+1)
		}
	}
}

func TestInstanceValidation(t *testing.T) {
	if _, err := NewInstance(InstanceConfig{Readings: 10}); err == nil {
		t.Fatal("missing substation accepted")
	}
	if _, err := NewInstance(InstanceConfig{Substation: "s", Readings: 0}); err == nil {
		t.Fatal("zero readings accepted")
	}
	if _, err := NewInstance(InstanceConfig{Substation: strings.Repeat("x", 65), Readings: 1}); err == nil {
		t.Fatal("oversized substation key accepted")
	}
}

func TestInstanceGeneratesExactReadingCount(t *testing.T) {
	clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Millisecond)
	inst, err := NewInstance(InstanceConfig{
		Substation: "substation-00000",
		Readings:   10_000,
		Seed:       1,
		Now:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := ycsb.NewMemDB()
	rep, err := ycsb.Run(ycsb.RunConfig{Threads: 4},
		func(int) (ycsb.DB, error) { return db, nil }, inst)
	if err != nil {
		t.Fatal(err)
	}
	st := inst.Stats()
	if st.Inserted != 10_000 {
		t.Fatalf("inserted %d readings, want exactly 10000", st.Inserted)
	}
	if db.Len() != 10_000 {
		t.Fatalf("db holds %d rows; keys were not unique", db.Len())
	}
	if rep.Ops[ycsb.OpInsert] != 10_000 {
		t.Fatalf("measured %d inserts", rep.Ops[ycsb.OpInsert])
	}
	// 5 queries per 10 000 readings, issued per thread after each 2 000
	// readings; 4 threads of 2 500 readings each yield 4 queries (the
	// trailing partial interval does not trigger one).
	if st.Queries == 0 {
		t.Fatal("no queries executed")
	}
	if rep.Ops[ycsb.OpQuery] != st.Queries {
		t.Fatalf("report queries %d != instance queries %d", rep.Ops[ycsb.OpQuery], st.Queries)
	}
}

func TestQueryToInsertRatio(t *testing.T) {
	clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Millisecond)
	inst, err := NewInstance(InstanceConfig{
		Substation: "substation-00000",
		Readings:   20_000,
		Seed:       2,
		Now:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := ycsb.NewMemDB()
	if _, err := ycsb.Run(ycsb.RunConfig{Threads: 1},
		func(int) (ycsb.DB, error) { return db, nil }, inst); err != nil {
		t.Fatal(err)
	}
	st := inst.Stats()
	// One thread, 20 000 readings: a query fires after each 2 000 => 10.
	if st.Queries != 10 {
		t.Fatalf("queries = %d, want 10 (five per 10k readings)", st.Queries)
	}
}

func TestGeneratedPairsAreSpecCompliant(t *testing.T) {
	clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Millisecond)
	inst, err := NewInstance(InstanceConfig{
		Substation:     "substation-00007",
		Readings:       500,
		Seed:           3,
		Now:            clock.Now,
		DisableQueries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := ycsb.NewMemDB()
	if _, err := ycsb.Run(ycsb.RunConfig{Threads: 2},
		func(int) (ycsb.DB, error) { return db, nil }, inst); err != nil {
		t.Fatal(err)
	}
	rows, err := collect(db, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("stored %d rows", len(rows))
	}
	sensorSeen := map[string]bool{}
	for _, row := range rows {
		if got := len(row.Key) + len(row.Value); got != kvp.PairSize {
			t.Fatalf("pair is %d bytes, want %d", got, kvp.PairSize)
		}
		k, err := kvp.DecodeKey(row.Key)
		if err != nil {
			t.Fatal(err)
		}
		if k.Substation != "substation-00007" {
			t.Fatalf("wrong substation %q", k.Substation)
		}
		v, err := kvp.DecodeValue(row.Value)
		if err != nil {
			t.Fatal(err)
		}
		if err := (kvp.Pair{Key: k, Value: v}).Validate(); err != nil {
			t.Fatalf("pair fails spec validation: %v", err)
		}
		sensorSeen[k.Sensor] = true
	}
	// 500 readings round-robin over 200 sensors must touch every sensor.
	if len(sensorSeen) != sensors.PerSubstation {
		t.Fatalf("readings covered %d sensors, want %d", len(sensorSeen), sensors.PerSubstation)
	}
}

func TestQueriesAggregateRecentData(t *testing.T) {
	// Step the clock ~1ms per operation so 2 000 inserts span ~2 s and the
	// 5 s recent window always covers a healthy population.
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
	db := ycsb.NewMemDB()
	if _, err := ycsb.Run(ycsb.RunConfig{Threads: 1},
		func(int) (ycsb.DB, error) { return db, nil }, inst); err != nil {
		t.Fatal(err)
	}
	st := inst.Stats()
	if st.Queries != 4 {
		t.Fatalf("queries = %d", st.Queries)
	}
	if st.RowsAggregated == 0 {
		t.Fatal("queries aggregated zero recent rows despite dense ingest")
	}
	if st.AvgRowsPerQuery() <= 0 {
		t.Fatal("AvgRowsPerQuery not positive")
	}
}

func TestRunQueryTemplates(t *testing.T) {
	db := ycsb.NewMemDB()
	sub, sensor := "ps", "pmu-freq-000"
	base := time.UnixMilli(1_700_000_000_000)
	unit := "hertz"
	put := func(tsOffsetMS int64, reading string) {
		k := kvp.Key{Substation: sub, Sensor: sensor, Timestamp: base.UnixMilli() + tsOffsetMS}
		padLen, err := kvp.PaddingFor(k, reading, unit)
		if err != nil {
			t.Fatal(err)
		}
		v := kvp.Value{Reading: reading, Unit: unit, Padding: make([]byte, padLen)}
		for i := range v.Padding {
			v.Padding[i] = 'p'
		}
		if err := db.Insert(k.Encode(), v.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	// Historical interval [base, base+5s): readings 10, 20.
	put(0, "10.00")
	put(1000, "20.00")
	// Recent interval [now-5s, now) with now = base+100s: 30, 40, 50.
	now := base.Add(100 * time.Second)
	put(96_000, "30.00")
	put(97_000, "40.00")
	put(98_000, "50.00")

	res, err := RunQuery(db, QueryMax, sub, sensor, now, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recent.Rows != 3 || res.Historical.Rows != 2 {
		t.Fatalf("row counts: recent %d, hist %d", res.Recent.Rows, res.Historical.Rows)
	}
	if res.Recent.Max != 50 || res.Historical.Max != 20 {
		t.Fatalf("max: %v vs %v", res.Recent.Max, res.Historical.Max)
	}
	if res.Value() != 30 {
		t.Fatalf("max comparison = %v, want 30", res.Value())
	}

	res, _ = RunQuery(db, QueryMin, sub, sensor, now, base)
	if res.Recent.Min != 30 || res.Historical.Min != 10 || res.Value() != 20 {
		t.Fatalf("min template: %+v", res)
	}
	res, _ = RunQuery(db, QueryAvg, sub, sensor, now, base)
	if res.Recent.Avg != 40 || res.Historical.Avg != 15 || res.Value() != 25 {
		t.Fatalf("avg template: %+v", res)
	}
	res, _ = RunQuery(db, QueryCount, sub, sensor, now, base)
	if res.Value() != 1 {
		t.Fatalf("count template: %v", res.Value())
	}
}

func TestRunQueryEmptyIntervals(t *testing.T) {
	db := ycsb.NewMemDB()
	res, err := RunQuery(db, QueryAvg, "ps", "s", time.UnixMilli(10_000_000), time.UnixMilli(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Recent.Rows != 0 || res.Historical.Rows != 0 || res.Value() != 0 {
		t.Fatalf("empty-interval query: %+v", res)
	}
}

func TestQueryKindString(t *testing.T) {
	for q, want := range map[QueryKind]string{
		QueryMax: "max-reading", QueryMin: "min-reading",
		QueryAvg: "average-reading", QueryCount: "reading-count",
	} {
		if q.String() != want {
			t.Fatalf("%d.String() = %q", q, q.String())
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []ycsb.KV {
		clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Millisecond)
		inst, err := NewInstance(InstanceConfig{
			Substation:     "substation-00000",
			Readings:       300,
			Seed:           42,
			Now:            clock.Now,
			DisableQueries: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		db := ycsb.NewMemDB()
		if _, err := ycsb.Run(ycsb.RunConfig{Threads: 1},
			func(int) (ycsb.DB, error) { return db, nil }, inst); err != nil {
			t.Fatal(err)
		}
		rows, _ := collect(db, nil, nil, 0)
		return rows
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if string(a[i].Key) != string(b[i].Key) || string(a[i].Value) != string(b[i].Value) {
			t.Fatalf("row %d differs between identical seeded runs", i)
		}
	}
}

// collect drains db.ScanIter over [lo, hi) with the given row limit,
// copying each row: a RowIter may lend its slices only until the next call.
func collect(db ycsb.DB, lo, hi []byte, limit int) ([]ycsb.KV, error) {
	it, err := db.ScanIter(lo, hi, limit)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var rows []ycsb.KV
	for {
		kv, ok, err := it.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, ycsb.KV{Key: append([]byte(nil), kv.Key...), Value: append([]byte(nil), kv.Value...)})
	}
}
