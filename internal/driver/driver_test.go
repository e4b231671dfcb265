package driver

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/workload"
	"tpcxiot/internal/ycsb"
)

// memSUT is a fast in-memory SUT for driver tests.
type memSUT struct {
	mu       sync.Mutex
	db       *ycsb.MemDB
	factor   int
	cleanups int
	failNext error
}

func newMemSUT() *memSUT {
	return &memSUT{db: ycsb.NewMemDB(), factor: 3}
}

func (s *memSUT) Binding(d int) ycsb.Binding {
	return func(int) (ycsb.DB, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.db, nil
	}
}

func (s *memSUT) ReplicationFactor() int { return s.factor }

func (s *memSUT) Cleanup() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cleanups++
	if s.failNext != nil {
		return s.failNext
	}
	s.db = ycsb.NewMemDB()
	return nil
}

func (s *memSUT) Describe() string { return "in-memory test SUT" }

// testClock is a concurrency-safe stepping clock.
type testClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newTestClock(step time.Duration) *testClock {
	return &testClock{now: time.UnixMilli(1_700_000_000_000), step: step}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Drivers: 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("missing SUT: %v", err)
	}
	if _, err := Run(Config{SUT: newMemSUT()}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero drivers: %v", err)
	}
	if _, err := Run(Config{SUT: newMemSUT(), Drivers: 10, TotalKVPs: 5}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("kvps below drivers: %v", err)
	}
}

func TestPrerequisiteFailureAborts(t *testing.T) {
	sut := newMemSUT()
	sut.factor = 2
	res, err := Run(Config{SUT: sut, Drivers: 1, TotalKVPs: 100})
	if !errors.Is(err, ErrPrerequisite) {
		t.Fatalf("factor-2 SUT not rejected: %v", err)
	}
	if res == nil || res.Prerequisites.Passed() {
		t.Fatal("prerequisites should record the failure")
	}
	if len(res.Iterations) != 0 {
		t.Fatal("workload executed despite failed prerequisites")
	}
}

func TestFileCheckRunsWhenManifestGiven(t *testing.T) {
	dir := t.TempDir()
	kitFile := filepath.Join(dir, "kit.bin")
	os.WriteFile(kitFile, []byte("kit"), 0o644)
	manifest, err := audit.BuildManifest([]string{kitFile})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: run must abort on the file check.
	os.WriteFile(kitFile, []byte("hacked"), 0o644)
	_, err = Run(Config{SUT: newMemSUT(), Drivers: 1, TotalKVPs: 100, Manifest: manifest})
	if !errors.Is(err, ErrPrerequisite) {
		t.Fatalf("tampered kit not rejected: %v", err)
	}
}

func TestFullBenchmarkRun(t *testing.T) {
	sut := newMemSUT()
	clock := newTestClock(time.Millisecond)
	var logged []string
	res, err := Run(Config{
		SUT:                sut,
		Drivers:            2,
		TotalKVPs:          30_001, // odd so Equation 3's remainder path runs
		ThreadsPerDriver:   2,
		Seed:               7,
		MinWorkloadSeconds: 0.001, // scaled-down run
		Now:                clock.Now,
		Logf:               func(f string, a ...any) { logged = append(logged, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 2 {
		t.Fatalf("iterations = %d, want 2", len(res.Iterations))
	}
	if sut.cleanups != 1 {
		t.Fatalf("cleanups = %d, want exactly 1 (between iterations)", sut.cleanups)
	}
	for i, it := range res.Iterations {
		if it.Measured.KVPs != 30_001 {
			t.Fatalf("iteration %d ingested %d kvps", i, it.Measured.KVPs)
		}
		if it.Measured.Elapsed() <= 0 {
			t.Fatalf("iteration %d has non-positive elapsed", i)
		}
		// Both drivers reported.
		if len(it.Measured.Drivers) != 2 {
			t.Fatalf("iteration %d has %d driver outcomes", i, len(it.Measured.Drivers))
		}
		shares := it.Measured.Drivers[0].Share + it.Measured.Drivers[1].Share
		if shares != 30_001 {
			t.Fatalf("shares sum to %d", shares)
		}
		// Data check must pass.
		for _, c := range it.Checks {
			if c.Name == "data-check" && !c.Passed {
				t.Fatalf("data check failed: %s", c.Detail)
			}
		}
	}
	if res.Compliant {
		t.Fatal("scaled-down run marked compliant")
	}
	if res.IoTps() <= 0 {
		t.Fatal("zero reported IoTps")
	}
	if len(res.Metric.Runs) != 2 {
		t.Fatalf("metric runs = %d", len(res.Metric.Runs))
	}
	if len(logged) == 0 {
		t.Fatal("no progress logged")
	}

	rep := res.Report()
	for _, want := range []string{"TPCx-IoT Benchmark Report", "Iteration 1", "Iteration 2",
		"data-check", "per-sensor-ingest-rate", "repeatability", "IoTps"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestCleanupFailureSurfaced(t *testing.T) {
	sut := newMemSUT()
	sut.failNext = errors.New("cleanup exploded")
	clock := newTestClock(time.Millisecond)
	_, err := Run(Config{
		SUT: sut, Drivers: 1, TotalKVPs: 2_000,
		ThreadsPerDriver: 1, MinWorkloadSeconds: 0.001, Now: clock.Now,
	})
	if err == nil || !strings.Contains(err.Error(), "cleanup") {
		t.Fatalf("cleanup failure not surfaced: %v", err)
	}
}

func TestSingleIterationSkipsCleanupAndRepeatability(t *testing.T) {
	sut := newMemSUT()
	clock := newTestClock(time.Millisecond)
	res, err := Run(Config{
		SUT: sut, Drivers: 1, TotalKVPs: 2_000, Iterations: 1,
		ThreadsPerDriver: 1, MinWorkloadSeconds: 0.001, Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sut.cleanups != 0 {
		t.Fatal("cleanup ran for a single iteration")
	}
	for _, c := range res.Checks() {
		if c.Name == "repeatability" {
			t.Fatal("repeatability check present with one iteration")
		}
	}
}

// executeOnce runs one workload execution outside a full benchmark.
func executeOnce(cfg Config) (Execution, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return Execution{}, err
	}
	return executeWorkload(c, 1)
}

func TestExecutionAggregates(t *testing.T) {
	sut := newMemSUT()
	clock := newTestClock(time.Millisecond)
	exec, err := executeOnce(Config{
		SUT: sut, Drivers: 3, TotalKVPs: 12_000,
		ThreadsPerDriver: 2, MinWorkloadSeconds: 0.001, Now: clock.Now, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exec.KVPs != 12_000 {
		t.Fatalf("execution ingested %d", exec.KVPs)
	}
	if exec.InsertLatency.Count() != 12_000 {
		t.Fatalf("insert latency count %d", exec.InsertLatency.Count())
	}
	minT, maxT, avgT := exec.IngestSkew()
	if minT <= 0 || maxT < minT || avgT < minT || avgT > maxT {
		t.Fatalf("skew stats inconsistent: min %v max %v avg %v", minT, maxT, avgT)
	}
	if exec.IoTps() <= 0 {
		t.Fatal("non-positive execution IoTps")
	}
	// 3 drivers x 4000 readings, threads of 2000 => queries fired.
	if exec.QueryLatency.Count() == 0 {
		t.Fatal("no queries measured")
	}
	if exec.AvgRowsPerQuery() < 0 {
		t.Fatal("negative rows per query")
	}
}

func TestExecutionSubstationsDistinct(t *testing.T) {
	sut := newMemSUT()
	clock := newTestClock(time.Millisecond)
	exec, err := executeOnce(Config{
		SUT: sut, Drivers: 4, TotalKVPs: 4_000,
		ThreadsPerDriver: 1, MinWorkloadSeconds: 0.001, Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range exec.Drivers {
		if seen[d.Substation] {
			t.Fatalf("duplicate substation %s", d.Substation)
		}
		seen[d.Substation] = true
		if d.Substation != workload.SubstationName(len(seen)-1) && !seen[workload.SubstationName(len(seen)-1)] {
			t.Fatalf("unexpected substation naming: %v", d.Substation)
		}
	}
}
