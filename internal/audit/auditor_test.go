package audit

import (
	"strings"
	"testing"
	"time"

	"tpcxiot/internal/telemetry"
)

// seriesOf builds a telemetry series with one complete interval per count:
// point i carries count[i] benchmark ops over exactly one period.
func seriesOf(period time.Duration, counts ...int64) *telemetry.Series {
	s := &telemetry.Series{Interval: period}
	for i, n := range counts {
		s.Points = append(s.Points, telemetry.Point{
			Elapsed:  time.Duration(i+1) * period,
			Interval: period,
			Ops:      []telemetry.OpPoint{{Name: "op.INSERT", Count: n}},
		})
	}
	return s
}

// healthyRun wraps a series in metadata that passes every run-level rule.
func healthyRun(s *telemetry.Series) RunInfo {
	return RunInfo{
		WarmupSeconds:   5,
		MeasuredSeconds: 10,
		KVPs:            1000,
		ExpectedKVPs:    1000,
		TotalOps:        1000,
		Series:          s,
	}
}

func TestSustainedThroughputExactBoundaryPasses(t *testing.T) {
	// Counts 1200/1000/800 over 1 s intervals: mean 1000 ops/s, default
	// ±20% band [800, 1200]. Both extremes sit exactly on the band edge —
	// the boundary is inclusive, so the rule passes with no violations.
	a := NewAuditor(Config{MinSeconds: 1})
	v := a.Evaluate(healthyRun(seriesOf(time.Second, 1200, 1000, 800)))
	r, ok := v.Rule(RuleSustainedThroughput)
	if !ok || !r.Passed {
		t.Fatalf("exact-boundary intervals must pass: %+v", r)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("expected no violations, got %+v", r.Violations)
	}
	if !v.Valid {
		t.Fatalf("verdict invalid: %+v", v)
	}
	if v.MeanRate != 1000 {
		t.Fatalf("mean rate = %v, want 1000", v.MeanRate)
	}
}

func TestSustainedThroughputJustOutsideBoundaryFails(t *testing.T) {
	// Counts 1201/1000/799: mean stays 1000 (sum 3000), band [800, 1200],
	// so both extremes are one op/s outside it and each must be flagged.
	a := NewAuditor(Config{MinSeconds: 1})
	v := a.Evaluate(healthyRun(seriesOf(time.Second, 1201, 1000, 799)))
	r, _ := v.Rule(RuleSustainedThroughput)
	if r.Passed {
		t.Fatalf("out-of-band intervals must fail: %+v", r)
	}
	if len(r.Violations) != 2 {
		t.Fatalf("expected 2 violations, got %+v", r.Violations)
	}
	if v.Valid {
		t.Fatal("verdict must be invalid when a rule fails")
	}
	// The violation is structured: interval index, observed rate, band.
	first := r.Violations[0]
	if first.Interval != 0 || first.Observed != 1201 || first.Lo != 800 || first.Hi != 1200 {
		t.Fatalf("violation structure wrong: %+v", first)
	}
	// And the failure surfaces through the checklist bridge.
	check := v.Check()
	if check.Passed || !strings.Contains(check.Detail, RuleSustainedThroughput) {
		t.Fatalf("check must carry the failed rule name: %+v", check)
	}
}

func TestSustainedThroughputSingleIntervalVacuous(t *testing.T) {
	// One complete interval has no deviation to measure: the rule passes
	// vacuously and says so rather than inventing a verdict.
	a := NewAuditor(Config{MinSeconds: 1})
	v := a.Evaluate(healthyRun(seriesOf(time.Second, 1000)))
	r, _ := v.Rule(RuleSustainedThroughput)
	if !r.Passed {
		t.Fatalf("single-interval run must pass vacuously: %+v", r)
	}
	if !strings.Contains(r.Detail, "need >= 2") {
		t.Fatalf("vacuous pass must explain itself: %q", r.Detail)
	}
	if v.Intervals != 1 {
		t.Fatalf("intervals = %d, want 1", v.Intervals)
	}
}

func TestSustainedThroughputNilSeries(t *testing.T) {
	a := NewAuditor(Config{MinSeconds: 1})
	v := a.Evaluate(healthyRun(nil))
	r, _ := v.Rule(RuleSustainedThroughput)
	if !r.Passed || !strings.Contains(r.Detail, "telemetry disabled") {
		t.Fatalf("nil series must pass with explanation: %+v", r)
	}
}

func TestSustainedThroughputExcludesPartialTail(t *testing.T) {
	// Three steady intervals plus a 100 ms tail (the Stop/Snapshot point):
	// folding the tail in would read as an 80% throughput collapse, but it
	// is a partial interval and must be excluded from the rule.
	s := seriesOf(time.Second, 1000, 1000, 1000)
	s.Points = append(s.Points, telemetry.Point{
		Elapsed:  3100 * time.Millisecond,
		Interval: 100 * time.Millisecond,
		Ops:      []telemetry.OpPoint{{Name: "op.INSERT", Count: 20}}, // 200 ops/s
	})
	a := NewAuditor(Config{MinSeconds: 1})
	v := a.Evaluate(healthyRun(s))
	r, _ := v.Rule(RuleSustainedThroughput)
	if !r.Passed {
		t.Fatalf("partial tail must not count as a collapse: %+v", r)
	}
	if v.Intervals != 3 {
		t.Fatalf("complete intervals = %d, want 3", v.Intervals)
	}
}

func TestViolationSignalAttribution(t *testing.T) {
	// The collapsed interval carries co-occurring signals — sheds, client
	// retries, compaction debt, a GC pause — and the violation must name
	// them. The untagged sheds aggregate is preferred over tagged copies
	// (no double counting).
	// Eight steady intervals and one collapse: mean (8*1000+100)/9 = 900,
	// band [720, 1080], so only the collapsed interval violates.
	s := seriesOf(time.Second, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000)
	s.Points = append(s.Points, telemetry.Point{
		Elapsed:  9 * time.Second,
		Interval: time.Second,
		Ops: []telemetry.OpPoint{
			{Name: "op.INSERT", Count: 100},
			{Name: "gc.pause", Count: 3, P99: 12_000_000},
		},
		Counters: []telemetry.Value{
			{Name: "hbase.client_retries", Value: 17},
			{Name: "hbase.sheds", Value: 42},
			{Name: "hbase.sheds{server=1}", Value: 40},
		},
		Gauges: []telemetry.Value{
			{Name: "lsm.compaction_debt_bytes", Value: 8 << 20},
			{Name: "replication.catchup_depth", Value: 5},
		},
	})
	a := NewAuditor(Config{MinSeconds: 1})
	v := a.Evaluate(healthyRun(s))
	r, _ := v.Rule(RuleSustainedThroughput)
	if len(r.Violations) != 1 {
		t.Fatalf("expected 1 violation, got %+v", r.Violations)
	}
	sig := strings.Join(r.Violations[0].Signals, " ")
	for _, want := range []string{"sheds=+42", "client_retries=+17", "compaction_debt=8.0MiB", "catchup_depth=5", "gc_pauses=3"} {
		if !strings.Contains(sig, want) {
			t.Fatalf("signals %q missing %q", sig, want)
		}
	}
	if strings.Contains(sig, "sheds=+82") || strings.Contains(sig, "sheds=+40") {
		t.Fatalf("tagged sheds double-counted: %q", sig)
	}
}

func TestTaggedCountersSummedWithoutAggregate(t *testing.T) {
	p := telemetry.Point{Counters: []telemetry.Value{
		{Name: "lsm.stalls{region=iot,00000,server=0}", Value: 2},
		{Name: "lsm.stalls{region=iot,00001,server=1}", Value: 3},
	}}
	sig := strings.Join(IntervalSignals(p), " ")
	if !strings.Contains(sig, "write_stalls=+5") {
		t.Fatalf("tagged-only counter must sum across tags: %q", sig)
	}
}

func TestRunLevelRuleBoundaries(t *testing.T) {
	a := NewAuditor(Config{MinSeconds: 10, ShedBudget: 0.05})

	t.Run("duration exactly on floor passes", func(t *testing.T) {
		run := healthyRun(nil)
		run.MeasuredSeconds = 10
		r, _ := a.Evaluate(run).Rule(RuleMinDuration)
		if !r.Passed {
			t.Fatalf("boundary duration must pass: %+v", r)
		}
	})
	t.Run("duration below floor fails", func(t *testing.T) {
		run := healthyRun(nil)
		run.MeasuredSeconds = 9.99
		v := a.Evaluate(run)
		if r, _ := v.Rule(RuleMinDuration); r.Passed || v.Valid {
			t.Fatalf("short run must fail min-duration: %+v", r)
		}
	})
	t.Run("missing warmup fails", func(t *testing.T) {
		run := healthyRun(nil)
		run.WarmupSeconds = 0
		if r, _ := a.Evaluate(run).Rule(RuleWarmupExclusion); r.Passed {
			t.Fatalf("run without warmup must fail: %+v", r)
		}
	})
	t.Run("kvp mismatch fails data check", func(t *testing.T) {
		run := healthyRun(nil)
		run.KVPs = 999
		if r, _ := a.Evaluate(run).Rule(RuleDataCheck); r.Passed {
			t.Fatalf("kvp mismatch must fail: %+v", r)
		}
	})
	t.Run("shed fraction exactly on budget passes", func(t *testing.T) {
		run := healthyRun(nil)
		run.TotalOps, run.ShedOps = 1000, 50 // exactly 5%
		if r, _ := a.Evaluate(run).Rule(RuleShedBudget); !r.Passed {
			t.Fatalf("boundary shed budget must pass: %+v", r)
		}
	})
	t.Run("shed fraction above budget fails", func(t *testing.T) {
		run := healthyRun(nil)
		run.TotalOps, run.ShedOps = 1000, 51
		if r, _ := a.Evaluate(run).Rule(RuleShedBudget); r.Passed {
			t.Fatalf("over-budget shedding must fail: %+v", r)
		}
	})
}

func TestEvaluatePartialIsInterruptedAndNeverValid(t *testing.T) {
	a := NewAuditor(Config{MinSeconds: 1})
	v := a.EvaluatePartial(seriesOf(time.Second, 1000, 1000), 2000)
	if !v.Interrupted {
		t.Fatal("partial verdict must be marked interrupted")
	}
	if v.Valid {
		t.Fatal("an interrupted run has no reportable result")
	}
	if v.TargetRate != 2000 {
		t.Fatalf("target rate = %v, want 2000", v.TargetRate)
	}
	if _, ok := v.Rule(RuleSustainedThroughput); !ok {
		t.Fatal("partial verdict must still evaluate the interval rules")
	}
	if _, ok := v.Rule(RuleDataCheck); ok {
		t.Fatal("partial verdict must not invent run-level rule outcomes")
	}
}

func TestVerdictBenchfmtExport(t *testing.T) {
	a := NewAuditor(Config{MinSeconds: 1})
	v := a.Evaluate(healthyRun(seriesOf(time.Second, 1201, 1000, 799)))
	f := v.Benchfmt()
	if f.Benchmark != "RunValidityAudit" {
		t.Fatalf("benchmark name = %q", f.Benchmark)
	}
	if len(f.Results) != len(v.Rules) {
		t.Fatalf("results = %d, want one per rule (%d)", len(f.Results), len(v.Rules))
	}
	byRule := map[string]map[string]float64{}
	for _, r := range f.Results {
		byRule[r.Variant["rule"]] = r.Metrics
	}
	m, ok := byRule[RuleSustainedThroughput]
	if !ok {
		t.Fatalf("missing sustained-throughput result: %+v", byRule)
	}
	if m["passed"] != 0 || m["violations"] != 2 {
		t.Fatalf("sustained metrics wrong: %+v", m)
	}
	if valid, _ := f.Summary["valid"].(bool); valid {
		t.Fatalf("summary.valid must be false: %+v", f.Summary)
	}
}
