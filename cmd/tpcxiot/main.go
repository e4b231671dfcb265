// Command tpcxiot runs the TPCx-IoT benchmark against the live in-process
// mini-HBase cluster, mirroring the kit's command line: the number of
// driver instances (simulated power substations) and the total number of
// kvps to ingest.
//
// Usage:
//
//	tpcxiot -drivers 4 -kvps 400000 -nodes 3
//
// A compliant run requires -kvps large enough that every workload
// execution exceeds 1800 s; smaller runs complete quickly but are reported
// as non-compliant (useful for laptop-scale shape checks).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/benchfmt"
	"tpcxiot/internal/driver"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/replication"
	"tpcxiot/internal/sstable"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

func main() {
	var (
		drivers     = flag.Int("drivers", 2, "driver instances (simulated power substations)")
		kvps        = flag.Int64("kvps", 200_000, "total kvps to ingest per workload execution")
		nodes       = flag.Int("nodes", 3, "region servers in the cluster")
		threads     = flag.Int("threads", 4, "worker threads per driver instance")
		writeBuffer = flag.Int64("writebuffer", 256<<10, "client write buffer bytes (hbase.client.write.buffer)")
		handlers    = flag.Int("handlers", 32, "request handlers per region server")
		maxInflight = flag.Int("max-inflight", 0, "override -handlers: bounded mutate handler pool per region server (0 keeps -handlers)")
		quorum      = flag.Int("quorum", 0, "members (primary included) that must apply before a write acks; 0 = majority of the replication factor, -1 = full fan-out (pre-quorum behavior)")
		shedWater   = flag.Int("shed-watermark", 0, "queued mutates per server beyond which new ones are shed with a retryable overload error (0 = 4x handlers, negative disables shedding)")
		iterations  = flag.Int("iterations", 2, "benchmark iterations (spec requires 2)")
		minSeconds  = flag.Float64("minseconds", 1800, "minimum workload execution seconds for validity")
		dataDir     = flag.String("datadir", "", "data directory (default: temporary)")
		seed        = flag.Uint64("seed", 1, "workload generation seed")
		durable     = flag.Bool("durable", false, "fsync the WAL on every append (slow, crash-safe)")
		compactWin  = flag.Duration("compact-window", 5*time.Minute, "time-window width for tiered compaction; only the window holding the newest data is rewritten repeatedly (default ~300 readings/sensor at the 1 Hz benchmark cadence)")
		compression = flag.String("compression", "none", "SSTable data-block compression: none or flate")
		useTCP      = flag.Bool("tcp", false, "drive the cluster over its loopback TCP wire protocol")
		pushdown    = flag.Bool("pushdown", false, "evaluate dashboard query aggregation inside the region servers (server-side aggregation pushdown) instead of streaming raw rows to the client")
		analytics   = flag.Bool("analytics", false, "add downsampling and group-by-window analytic query templates to the query rotation (reported separately from the dashboard validity statistics)")
		status      = flag.Duration("status", 0, "log a status line for driver 0 on this interval (e.g. 2s)")
		targetRate  = flag.Float64("target-rate", 0, "pace the run at this system-wide intended rate in ops/s (split across drivers and threads into a fixed intended-start schedule); paced runs additionally record coordinated-omission-corrected intended latency (0 = open loop)")
		auditTol    = flag.Float64("audit-tolerance", 0, "sustained-performance band for the run-validity auditor: every complete telemetry interval must stay within this fraction of the mean interval rate (0 = auditor default 0.20)")
		auditJSON   = flag.String("audit-json", "", "write the audit verdict as a benchfmt JSON artifact to this file (default results/audit-<pid>.json when -telemetry is on)")

		telemetryOn  = flag.Bool("telemetry", false, "collect engine counters, op-path spans and a per-interval time series")
		telemetryInt = flag.Duration("telemetry-interval", 10*time.Second, "telemetry sampling period")
		telemetryCSV = flag.String("telemetry-csv", "", "write the telemetry time series to this CSV file (default results/telemetry-<pid>.csv when -telemetry is on)")
		telemetryAdr = flag.String("telemetry-addr", "", "serve /metrics, /storage, /healthz, /trace and /debug/pprof on this address, e.g. localhost:6060 (implies -telemetry)")
		healthInt    = flag.Duration("health-interval", 0, "runtime health sampling period (heap, GC pauses, goroutines; 0 = 1s default, negative disables)")
		traceSample  = flag.Int("trace-sample", 1024, "sample one in N client operations into distributed traces when telemetry is on (1 traces everything)")
		slowopMs     = flag.Float64("slowop-ms", -1, "log the full span tree of sampled operations slower than this many ms (0 logs every sampled op; negative disables)")
		eventsPath   = flag.String("events", "", "write structured JSONL engine events to this file (default stderr when telemetry is on)")
		traceJSON    = flag.String("trace-json", "", "write sampled traces as Chrome trace-event JSON to this file at exit (default results/trace-<pid>.json when tracing is on)")
	)
	flag.Parse()

	dir := *dataDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "tpcxiot-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
	}

	// Telemetry: one registry shared by the cluster (engine counters, put
	// spans) and the driver (op histograms, the interval ticker), plus a
	// tracer sampling client operations into distributed traces and a
	// structured event logger for the engine.
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	var elog *telemetry.Logger
	if *telemetryOn || *telemetryAdr != "" {
		reg = telemetry.NewRegistry()
		if *telemetryCSV == "" {
			*telemetryCSV = filepath.Join("results", fmt.Sprintf("telemetry-%d.csv", os.Getpid()))
		}
		eventsW := os.Stderr
		if *eventsPath != "" {
			if err := os.MkdirAll(filepath.Dir(*eventsPath), 0o755); err != nil {
				log.Fatal(err)
			}
			f, err := os.Create(*eventsPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			eventsW = f
		}
		elog = telemetry.NewLogger(eventsW, telemetry.LevelInfo).Instrument(reg)
		if *traceSample > 0 {
			tracer = telemetry.NewTracer(telemetry.TracerOptions{
				SampleEvery:     *traceSample,
				SlowOpThreshold: time.Duration(*slowopMs * float64(time.Millisecond)),
				SlowOpDisabled:  *slowopMs < 0,
				Logger:          elog,
			})
			if *traceJSON == "" {
				*traceJSON = filepath.Join("results", fmt.Sprintf("trace-%d.json", os.Getpid()))
			}
		}
	}
	walSync := wal.SyncNever
	if *durable {
		walSync = wal.SyncOnAppend
	}
	compr, err := sstable.ParseCompression(*compression)
	if err != nil {
		log.Fatal(err)
	}
	handlerCount := *handlers
	if *maxInflight > 0 {
		handlerCount = *maxInflight
	}
	quorumAcks := *quorum
	if quorumAcks < 0 {
		quorumAcks = replication.DefaultFactor // full fan-out: quorum = factor
	}
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:         *nodes,
		HandlerCount:  handlerCount,
		QuorumAcks:    quorumAcks,
		ShedWatermark: *shedWater,
		DataDir:       dir,
		Store: lsm.Options{
			WALSync:        walSync,
			WindowDuration: *compactWin,
			Compression:    compr,
		},
		Registry: reg,
		Tracer:   tracer,
		Logger:   elog,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	if reg != nil && *auditJSON == "" {
		*auditJSON = filepath.Join("results", fmt.Sprintf("audit-%d.json", os.Getpid()))
	}

	// Live audit state: the run-validity auditor, the verdicts completed
	// iterations produced (via OnVerdict), and the in-flight telemetry
	// ticker — shared by the /audit endpoint and the SIGINT flush.
	auditor := audit.NewAuditor(audit.Config{Tolerance: *auditTol, MinSeconds: *minSeconds})
	var auditMu sync.Mutex
	var verdicts []audit.Verdict
	var tickerMu sync.Mutex
	var liveTicker *telemetry.Ticker

	// The observability server mounts after the cluster exists so /storage
	// and /healthz can introspect the live stores, not a placeholder.
	if *telemetryAdr != "" {
		mux := telemetry.NewServeMux(reg)
		telemetry.MountTrace(mux, tracer)
		telemetry.MountJSON(mux, "/storage", func() any { return cluster.Storage() })
		telemetry.MountHealth(mux, "/healthz", func() (any, bool) {
			h := cluster.Health()
			return h, h.OK
		})
		// /audit serves the completed iterations' verdicts plus, while an
		// execution is in flight, a live partial evaluation of its interval
		// series so the run can be audited before it finishes.
		telemetry.MountJSON(mux, "/audit", func() any {
			var snap auditSnapshot
			auditMu.Lock()
			snap.Verdicts = append([]audit.Verdict(nil), verdicts...)
			auditMu.Unlock()
			tickerMu.Lock()
			t := liveTicker
			tickerMu.Unlock()
			if t != nil {
				live := auditor.EvaluatePartial(t.Snapshot(), *targetRate)
				snap.Live = &live
			}
			return snap
		})
		srv, addr, err := telemetry.ServeMux(*telemetryAdr, mux)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("telemetry: /metrics, /storage, /healthz, /audit, /trace and /debug/pprof on http://%s", addr)
	}

	sut, err := driver.NewClusterSUT(cluster, *drivers, *writeBuffer)
	if err != nil {
		log.Fatal(err)
	}
	if *useTCP {
		if err := sut.UseTCP(); err != nil {
			log.Fatal(err)
		}
	}

	// On SIGINT/SIGTERM, flush what telemetry exists — the in-flight
	// interval series, the trace buffer, and the audit verdict (completed
	// iterations plus a partial evaluation of the interrupted execution) —
	// before exiting, so an interrupted run still leaves an auditable trail.
	if reg != nil {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			log.Printf("interrupted: flushing telemetry")
			tickerMu.Lock()
			t := liveTicker
			tickerMu.Unlock()
			var partial *audit.Verdict
			if t != nil {
				s := t.Snapshot()
				if len(s.Points) > 0 {
					if err := writeOneSeriesCSV(*telemetryCSV, s); err != nil {
						log.Printf("telemetry: csv export: %v", err)
					} else {
						log.Printf("telemetry: partial series written to %s", *telemetryCSV)
					}
				}
				v := auditor.EvaluatePartial(s, *targetRate)
				partial = &v
			}
			auditMu.Lock()
			done := append([]audit.Verdict(nil), verdicts...)
			auditMu.Unlock()
			if err := writeAuditJSON(*auditJSON, done, partial); err != nil {
				log.Printf("audit: artifact export: %v", err)
			} else if *auditJSON != "" {
				log.Printf("audit: partial verdict written to %s", *auditJSON)
			}
			flushTraceJSON(*traceJSON, tracer)
			os.Exit(130)
		}()
	}

	res, err := driver.Run(driver.Config{
		Drivers:            *drivers,
		TotalKVPs:          *kvps,
		ThreadsPerDriver:   *threads,
		Seed:               *seed,
		SUT:                sut,
		Iterations:         *iterations,
		MinWorkloadSeconds: *minSeconds,
		StatusInterval:     *status,
		Pushdown:           *pushdown,
		Analytics:          *analytics,
		TargetRate:         *targetRate,
		AuditTolerance:     *auditTol,
		OnVerdict: func(it int, v audit.Verdict) {
			auditMu.Lock()
			verdicts = append(verdicts, v)
			auditMu.Unlock()
			if !v.Valid {
				log.Printf("audit: iteration %d verdict INVALID: %s", it+1, v.Check().Detail)
			}
		},
		Telemetry:         reg,
		TelemetryInterval: *telemetryInt,
		HealthInterval:    *healthInt,
		Tracer:            tracer,
		OnTicker: func(t *telemetry.Ticker) {
			tickerMu.Lock()
			liveTicker = t
			tickerMu.Unlock()
		},
		Logf: func(format string, args ...any) {
			log.Printf(format, args...)
		},
	})
	if err != nil {
		if res != nil {
			fmt.Print(res.Report())
		}
		log.Fatal(err)
	}
	fmt.Print(res.Report())
	if reg != nil {
		if err := writeSeriesCSVs(*telemetryCSV, res); err != nil {
			log.Printf("telemetry: csv export: %v", err)
		}
	}
	auditMu.Lock()
	done := append([]audit.Verdict(nil), verdicts...)
	auditMu.Unlock()
	if err := writeAuditJSON(*auditJSON, done, nil); err != nil {
		log.Printf("audit: artifact export: %v", err)
	} else if *auditJSON != "" && len(done) > 0 {
		log.Printf("audit: verdict artifact written to %s", *auditJSON)
	}
	flushTraceJSON(*traceJSON, tracer)
	if !res.Valid() {
		os.Exit(2)
	}
}

// auditSnapshot is the /audit endpoint's response: the verdicts of every
// completed iteration plus, while an execution is in flight, a live partial
// evaluation of its interval series.
type auditSnapshot struct {
	Verdicts []audit.Verdict `json:"verdicts"`
	Live     *audit.Verdict  `json:"live,omitempty"`
}

// writeAuditJSON exports the run's audit verdicts as one benchfmt document:
// one result per (iteration, rule), with an interrupted partial verdict —
// when the run was cut short — keyed iteration=interrupted. No-op when path
// is empty or there is nothing to write.
func writeAuditJSON(path string, verdicts []audit.Verdict, partial *audit.Verdict) error {
	if path == "" || (len(verdicts) == 0 && partial == nil) {
		return nil
	}
	combined := &benchfmt.File{
		Benchmark:   "RunValidityAudit",
		Description: "live run-validity audit verdicts, one result per (iteration, rule)",
	}
	valid := len(verdicts) > 0
	annotate := func(v audit.Verdict, iteration string) {
		vf := v.Benchfmt()
		for _, r := range vf.Results {
			r.Variant["iteration"] = iteration
			combined.Results = append(combined.Results, r)
		}
	}
	for i, v := range verdicts {
		annotate(v, fmt.Sprint(i+1))
		if !v.Valid {
			valid = false
		}
	}
	if partial != nil {
		annotate(*partial, "interrupted")
	}
	combined.Summary = map[string]any{
		"valid":       valid,
		"iterations":  len(verdicts),
		"interrupted": partial != nil,
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := combined.Write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// flushTraceJSON exports the tracer's completed-trace buffer as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto.
func flushTraceJSON(path string, tracer *telemetry.Tracer) {
	if tracer == nil || path == "" {
		return
	}
	traces := tracer.Traces()
	if len(traces) == 0 {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		log.Printf("telemetry: trace export: %v", err)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("telemetry: trace export: %v", err)
		return
	}
	err = telemetry.WriteChromeTrace(f, traces)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Printf("telemetry: trace export: %v", err)
		return
	}
	log.Printf("telemetry: %d sampled trace(s) written to %s", len(traces), path)
}

// writeOneSeriesCSV writes a single series snapshot to path.
func writeOneSeriesCSV(path string, s *telemetry.Series) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = s.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSeriesCSVs exports each iteration's measured-run time series. With
// one iteration the series goes to path verbatim; with more, each file gets
// an -iterN suffix so no iteration overwrites another.
func writeSeriesCSVs(path string, res *driver.Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	ext := filepath.Ext(path)
	base := path[:len(path)-len(ext)]
	for i, it := range res.Iterations {
		s := it.Measured.Series
		if s == nil || len(s.Points) == 0 {
			continue
		}
		out := path
		if len(res.Iterations) > 1 {
			out = fmt.Sprintf("%s-iter%d%s", base, i+1, ext)
		}
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		err = s.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		log.Printf("telemetry: iteration %d measured-run series written to %s", i+1, out)
	}
	return nil
}
