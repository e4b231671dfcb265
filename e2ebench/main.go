// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload against the live in-process mini-HBase cluster, checks
// that the run was correct, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with tracing
// off. With -trace 1 the same workload runs with the engine's span sampler
// on and the metrics are the per-layer set (see README.md for what each
// one should move). Any failed correctness check exits non-zero without a
// result line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// roundConfig is what one round of a workload needs.
type roundConfig struct {
	seed    uint64
	seconds float64 // length of this round's measured window
	traced  bool
	dir     string // data directory, created by the round
}

// roundResult is one round's outcome: every metric, end-to-end and
// per-layer, and the latency samples behind the pooled percentiles. Checks
// lists the correctness checks that ran, all of which passed (a failed
// check is an error instead).
type roundResult struct {
	metrics   map[string]float64
	samples   map[string][]float64
	attempted int64
	failed    int64
	checks    []string
}

// workloadSpec is one workload: how to run a round of it, and how many
// rounds a run has. Each round sets up a fresh cluster and measures a
// window of the run's seconds divided by the rounds; every metric is the
// median over the rounds, so one slow set-up or one compaction-heavy
// window does not decide the run's figure. Paced workloads get fewer,
// longer windows: their tails come from rare stalls, which a short window
// catches or misses.
type workloadSpec struct {
	run    func(rc roundConfig) (roundResult, error)
	rounds int
}

var workloads = map[string]workloadSpec{
	"ingest":    {runIngest, 4},
	"paced-tcp": {runPacedTCP, 2},
	"dashboard": {runDashboard, 3},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name       = flag.String("workload", "", "workload: ingest, paced-tcp or dashboard")
		seed       = flag.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
		seconds    = flag.Float64("seconds", 15, "measured seconds per run, split evenly over the rounds")
		trace      = flag.Int("trace", 0, "1 runs with span sampling on and prints the per-layer metrics")
		root       = flag.String("root", ".bench_build", "directory for the clusters' data files")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload ingest|paced-tcp|dashboard, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	dataRoot, err := os.MkdirTemp(*root, "data-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dataRoot)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeAllocProfile(*memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			}
		}()
	}

	rounds := spec.rounds
	fmt.Printf("workload %s, seed %d, %d rounds of %.2f s, trace %d\n",
		*name, *seed, rounds, *seconds/float64(rounds), *trace)
	var results []roundResult
	for r := 0; r < rounds; r++ {
		runtime.GC()
		rc := roundConfig{
			seed:    *seed*uint64(rounds) + uint64(r),
			seconds: *seconds / float64(rounds),
			traced:  *trace == 1,
			dir:     filepath.Join(dataRoot, fmt.Sprintf("round-%d", r)),
		}
		res, err := spec.run(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s round %d: %v\n", *name, r+1, err)
			return 1
		}
		if err := os.RemoveAll(rc.dir); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		fmt.Printf("round %d: passed %v\n", r+1, res.checks)
		results = append(results, res)
	}

	// Peak RSS covers every round of the process, set-up included.
	for i := range results {
		results[i].metrics["peak_rss_mb"] = peakRSSMB()
	}
	defs := e2eMetrics
	if *trace == 1 {
		defs = layerMetrics
	}
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	for _, d := range defs {
		v, vals, err := combine(results, d.name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-44s %16.6g %-12s rounds %v\n", d.name, v, d.unit, vals)
	}
	if *trace == 0 {
		for _, d := range reportedMetrics {
			v, vals, err := combine(results, d.name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
				return 1
			}
			fmt.Printf("%-44s %16.6g %-12s rounds %v (reported, not in the result)\n", d.name, v, d.unit, vals)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// combine reduces one metric over the rounds: a pooled percentile, the
// pooled write amplification, or else the median. It also returns the
// per-round values.
func combine(results []roundResult, name string) (float64, []float64, error) {
	var vals []float64
	for _, r := range results {
		v, ok := r.metrics[name]
		if !ok {
			return 0, nil, fmt.Errorf("metric %s was not measured", name)
		}
		vals = append(vals, v)
	}
	if q, ok := pooled[name]; ok {
		return percentile(pool(results, q.samples), q.p), vals, nil
	}
	if name == "write_amp" {
		return ratio(sum(pool(results, "write_physical")), sum(pool(results, "write_logical"))), vals, nil
	}
	return median(vals), vals, nil
}

// pool concatenates one kind of sample over every round.
func pool(results []roundResult, kind string) []float64 {
	var all []float64
	for _, r := range results {
		all = append(all, r.samples[kind]...)
	}
	return all
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// median of vals (the mean of the middle two for an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile of samples by nearest rank; samples is sorted in place.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p/100*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(samples) {
		rank = len(samples) - 1
	}
	return samples[rank]
}

// millis converts d to milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
