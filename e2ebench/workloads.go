package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/driver"
	"tpcxiot/internal/gen"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/sensors"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/workload"
	"tpcxiot/internal/ycsb"
)

// Workload shapes. Both driver workloads run 2 driver instances of one
// load thread each, one client per thread, within a 2-core machine.
const (
	drivers = 2

	// ingestSizingRate sizes the open-loop ingest round: readings per
	// execution = ingestSizingRate × the round's seconds, about the
	// measured throughput on a 2-core x86 container, so the measured
	// window lasts roughly the requested time.
	ingestSizingRate = 40_000

	// pacedRate is paced-tcp's fixed system-wide offered rate in
	// readings/s, about half of ingest's median throughput on the same
	// machine.
	pacedRate = 17_500

	// minSeconds is the scaled-down execution floor given to the driver in
	// place of the specification's 1 800 s.
	minSeconds = 0.5
)

// Dashboard shape: one substation, one ingest thread, one query thread.
const (
	// dashIngestRate paces the ingest thread: 30 readings/s for each of
	// the substation's 200 sensors, above the specification's 20/s floor,
	// so every recent 5 s interval holds about 150 readings.
	dashIngestRate = 30 * sensors.PerSubstation
	// dashQueryRate is the query thread's fixed open-loop rate: enough
	// queries that each path's p99 has more than ten samples beyond it in
	// one run.
	dashQueryRate = 150.0
	// dashWarmup runs ingest and queries before the window opens, so
	// caches are warm and the recent intervals hold live readings.
	dashWarmup = 2 * time.Second
	// historySensors get a preloaded history of historyPerSec readings/s
	// over the 1 800 s history window, so every historical 5 s interval
	// holds 150 readings, as dense as the live ones.
	historySensors = 2
	historyPerSec  = 30
	// parityChecks is how many measured queries' historical intervals are
	// re-read through both query paths after the window.
	parityChecks = 16
)

func runIngest(rc roundConfig) (roundResult, error) {
	return runDriver(rc, driverWorkload{
		kvps: int64(math.Round(ingestSizingRate * rc.seconds)),
	})
}

func runPacedTCP(rc roundConfig) (roundResult, error) {
	return runDriver(rc, driverWorkload{
		kvps:      int64(math.Round(pacedRate * rc.seconds)),
		rate:      pacedRate,
		tcp:       true,
		pushdown:  true,
		analytics: true,
	})
}

type driverWorkload struct {
	kvps                     int64
	rate                     float64 // system-wide paced rate; 0 = open loop
	tcp, pushdown, analytics bool
}

// runDriver runs one benchmark iteration through driver.Run (warmup,
// measured run, quiesce, data check) and measures the measured run.
func runDriver(rc roundConfig, w driverWorkload) (roundResult, error) {
	t0 := time.Now()
	c, err := openCluster(rc)
	if err != nil {
		return roundResult{}, err
	}
	defer c.Close()
	sut, err := driver.NewClusterSUT(c.Cluster, drivers, writeBuffer)
	if err != nil {
		return roundResult{}, err
	}
	if w.tcp {
		if err := sut.UseTCP(); err != nil {
			return roundResult{}, err
		}
	}
	ps := newProbeSUT(sut, c.Cluster, w.tcp, writeBuffer, w.rate/drivers)
	m := measured{tracer: c.tracer}
	execs := 0
	ps.beforeQuiesce = func(exec int) {
		if exec == 2 {
			m.end = c.take()
		}
	}
	ps.afterQuiesce = func(exec int) {
		if exec == 2 {
			c.settle(&m.end)
		}
	}
	res, err := driver.Run(driver.Config{
		Drivers:            drivers,
		TotalKVPs:          w.kvps,
		ThreadsPerDriver:   1,
		Seed:               rc.seed,
		Now:                timestampClock(30 * time.Second),
		SUT:                ps,
		Iterations:         1,
		MinWorkloadSeconds: minSeconds,
		Telemetry:          c.reg,
		// The run-validity auditor checks sustained throughput per
		// telemetry interval; three per window keep at least two complete
		// ones (the kit's 10 s default would leave none to check).
		TelemetryInterval: time.Duration(rc.seconds * float64(time.Second) / 3),
		Tracer:            c.tracer,
		Pushdown:          w.pushdown,
		Analytics:         w.analytics,
		TargetRate:        w.rate,
		// The driver starts each execution's ticker just before its
		// threads: the second one opens the measured window.
		OnTicker: func(*telemetry.Ticker) {
			if execs++; execs == 2 {
				m.setup = time.Since(t0)
				m.start = c.take()
			}
		},
	})
	if err != nil {
		return roundResult{}, err
	}
	if len(res.Iterations) != 1 || ps.execs != 2 {
		return roundResult{}, fmt.Errorf("driver ran %d iterations, %d executions; want 1 and 2",
			len(res.Iterations), ps.execs)
	}
	it := res.Iterations[0]
	checks := []string{"data-check", "stored-rows"}
	for _, name := range checks {
		if err := requireCheck(it.Checks, name); err != nil {
			return roundResult{}, err
		}
	}
	if w.rate > 0 {
		if !it.Verdict.Valid {
			return roundResult{}, fmt.Errorf("run-validity audit failed: %+v", it.Verdict.Failed())
		}
		checks = append(checks, "audit VALID")
	}

	m.iotps = it.Measured.IoTps()
	m.kvps = it.Measured.KVPs
	m.quiesce = ps.quiesceTime
	m.datacheck = ps.countRowsTime
	for _, p := range ps.probes() {
		if !p.origin.Before(m.start.at) {
			m.probes = append(m.probes, p)
		}
	}
	return m.result(checks), nil
}

// requireCheck fails unless the checklist holds the named check, passed.
func requireCheck(checks audit.Checklist, name string) error {
	for _, c := range checks {
		if c.Name == name {
			if !c.Passed {
				return fmt.Errorf("check %s failed: %s", name, c.Detail)
			}
			return nil
		}
	}
	return fmt.Errorf("check %s did not run", name)
}

// result turns the window into the round's metrics.
func (m *measured) result(checks []string) roundResult {
	metrics, samples, attempted := m.metrics()
	var failed int64
	for _, p := range m.probes {
		failed += p.insertErrs
	}
	return roundResult{metrics: metrics, samples: samples, attempted: attempted, failed: failed, checks: checks}
}

// runDashboard measures dashboard queries beside a low, paced ingest. Set-up
// preloads a dense history for a few sensors, then one thread ingests the
// substation's live readings while another issues the four dashboard
// templates open loop, alternating the streamed and the pushdown path.
func runDashboard(rc roundConfig) (roundResult, error) {
	t0 := time.Now()
	c, err := openCluster(rc)
	if err != nil {
		return roundResult{}, err
	}
	defer c.Close()
	sut, err := driver.NewClusterSUT(c.Cluster, 1, writeBuffer)
	if err != nil {
		return roundResult{}, err
	}
	ps := newProbeSUT(sut, c.Cluster, false, writeBuffer, dashIngestRate)
	substation := workload.SubstationName(0)

	rng := gen.NewRNG(rc.seed)
	catalogue := sensors.Catalogue()
	var hist []sensors.Sensor
	for _, i := range distinct(rng, len(catalogue), historySensors) {
		hist = append(hist, catalogue[i])
	}
	clock := timestampClock(time.Minute)
	histEnd := clock().UnixMilli()
	preloaded, err := preload(c.Cluster, substation, hist, histEnd, rc.seed)
	if err != nil {
		return roundResult{}, fmt.Errorf("preload: %w", err)
	}
	if err := settleCompactions(c.Cluster); err != nil {
		return roundResult{}, err
	}

	window := time.Duration(rc.seconds * float64(time.Second))
	inst, err := workload.NewInstance(workload.InstanceConfig{
		Substation: substation,
		// Paced, so the last reading is due as the window closes.
		Readings:       int64(dashIngestRate * (dashWarmup + window).Seconds()),
		Threads:        1,
		Seed:           rc.seed,
		Now:            clock,
		DisableQueries: true,
		Registry:       c.reg,
	})
	if err != nil {
		return roundResult{}, err
	}
	var (
		ingestErr error
		ingestWG  sync.WaitGroup
	)
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		_, ingestErr = ycsb.Run(ycsb.RunConfig{
			Threads:         1,
			TargetOpsPerSec: dashIngestRate,
			Registry:        c.reg,
		}, ps.Binding(0), inst)
	}()
	q, err := queryWindow(c, ps, clock, substation, hist, histEnd, rc.seed, window)
	if err == nil {
		q.m.setup = q.m.start.at.Sub(t0)
	}
	ingestWG.Wait()
	if err != nil {
		return roundResult{}, err
	}
	if ingestErr != nil {
		return roundResult{}, fmt.Errorf("ingest: %w", ingestErr)
	}
	m := q.m
	if err := ps.Quiesce(); err != nil {
		return roundResult{}, err
	}
	m.quiesce = ps.quiesceTime
	c.settle(&m.end)
	stored, err := ps.CountRows()
	if err != nil {
		return roundResult{}, err
	}
	m.datacheck = ps.countRowsTime
	if want := preloaded + inst.Stats().Inserted; stored != want {
		return roundResult{}, fmt.Errorf("stored-rows: storage holds %d of %d written readings", stored, want)
	}
	if q.rowsPerQuery < 200 {
		return roundResult{}, fmt.Errorf("rows/query %.1f below the specification's 200", q.rowsPerQuery)
	}
	for _, iv := range q.parity {
		if err := checkParity(q.db, substation, iv, clock()); err != nil {
			return roundResult{}, err
		}
	}
	if err := q.db.Close(); err != nil {
		return roundResult{}, err
	}
	m.probes = ps.probes()
	// Throughput of the readings due in the window, up to the last one's
	// acknowledgement: the schedule fixes how many are due, so a backlog
	// shows as a later last acknowledgement.
	last := m.start.at
	for _, p := range m.probes {
		for _, s := range p.acks {
			if m.in(s.due) {
				m.kvps++
				if t := s.due.Add(time.Duration(s.ms * float64(time.Millisecond))); t.After(last) {
					last = t
				}
			}
		}
	}
	m.iotps = float64(m.kvps) / last.Sub(m.start.at).Seconds()
	return m.result([]string{"stored-rows", "rows/query", "parity"}), nil
}

// dashboardRun is what the query thread measured, and the historical
// intervals it queried that the parity check re-reads.
type dashboardRun struct {
	m            measured
	db           *probeDB
	rowsPerQuery float64
	parity       []interval
}

// interval identifies one historical query interval for the parity check.
type interval struct {
	kind      workload.QueryKind
	sensor    string
	histStart time.Time
}

// queryWindow runs the query thread: warmup, then the measured window. It
// samples the window's historical intervals for the parity check; they lie
// before any live reading, so they do not change during the run and both
// paths must agree on them exactly.
func queryWindow(c *cluster, ps *probeSUT, clock func() time.Time, substation string, hist []sensors.Sensor,
	histEnd int64, seed uint64, window time.Duration) (dashboardRun, error) {

	db, err := ps.newDB(dashQueryRate)
	if err != nil {
		return dashboardRun{}, err
	}
	db.queryThread = true
	run := dashboardRun{db: db, m: measured{tracer: c.tracer}}
	rng := gen.NewRNG(seed ^ 0x5851f42d4c957f2d)
	spanMS := workload.HistoryWindow.Milliseconds() - workload.RecentWindow.Milliseconds()
	open := db.origin.Add(dashWarmup)
	shut := open.Add(window)
	var rows, queries int64
	for j := 0; ; j++ {
		due := db.origin.Add(time.Duration(float64(j) / dashQueryRate * float64(time.Second)))
		if !due.Before(shut) {
			break
		}
		time.Sleep(time.Until(due))
		measuring := !due.Before(open)
		if measuring && queries == 0 {
			run.m.start = c.take()
			run.m.start.at = open
		}
		iv := interval{
			kind:      workload.QueryKind(rng.Intn(4)),
			sensor:    hist[rng.Intn(len(hist))].Key,
			histStart: time.UnixMilli(histEnd - workload.HistoryWindow.Milliseconds() + rng.Int63n(spanMS)),
		}
		var res workload.QueryResult
		if j%2 == 0 {
			res, err = workload.RunQuery(db, iv.kind, substation, iv.sensor, clock(), iv.histStart)
		} else {
			res, err = workload.RunQueryPushdown(db, iv.kind, substation, iv.sensor, clock(), iv.histStart)
		}
		db.endQuery()
		if err != nil {
			return run, err
		}
		if measuring {
			queries++
			rows += int64(res.Recent.Rows + res.Historical.Rows)
			if len(run.parity) < parityChecks && j%5 == 0 {
				run.parity = append(run.parity, iv)
			}
		}
	}
	run.m.end = c.take()
	run.m.end.at = shut
	run.rowsPerQuery = float64(rows) / math.Max(1, float64(queries))
	return run, nil
}

// checkParity re-reads one historical interval through the streamed and
// the pushdown path and requires the template's statistic to agree.
func checkParity(db ycsb.DB, substation string, iv interval, now time.Time) error {
	s, err := workload.RunQuery(db, iv.kind, substation, iv.sensor, now, iv.histStart)
	if err != nil {
		return err
	}
	p, err := workload.RunQueryPushdown(db, iv.kind, substation, iv.sensor, now, iv.histStart)
	if err != nil {
		return err
	}
	a, b := s.Historical, p.Historical
	var sv, pv float64
	switch iv.kind {
	case workload.QueryMax:
		sv, pv = a.Max, b.Max
	case workload.QueryMin:
		sv, pv = a.Min, b.Min
	case workload.QueryAvg:
		sv, pv = a.Avg, b.Avg
	}
	if a.Rows != b.Rows || math.Abs(sv-pv) > 1e-9*math.Max(1, math.Abs(sv)) {
		return fmt.Errorf("parity: %s on %s at %v: streamed %+v, pushdown %+v",
			iv.kind, iv.sensor, iv.histStart, a, b)
	}
	return nil
}

// preload writes each sensor's history through the client, one client per
// sensor: historyPerSec readings/s over the history window ending at endMS.
func preload(cl *hbase.Cluster, substation string, hist []sensors.Sensor, endMS int64, seed uint64) (int64, error) {
	n := workload.HistoryWindow.Milliseconds() * historyPerSec / 1000
	errs := make([]error, len(hist))
	var wg sync.WaitGroup
	for i, s := range hist {
		wg.Add(1)
		go func(i int, s sensors.Sensor) {
			defer wg.Done()
			errs[i] = preloadSensor(cl, substation, s, endMS, n, seed+uint64(i))
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return n * int64(len(hist)), nil
}

func preloadSensor(cl *hbase.Cluster, substation string, s sensors.Sensor, endMS, n int64, seed uint64) error {
	c, err := cl.NewClient(table, writeBuffer)
	if err != nil {
		return err
	}
	reader := sensors.NewReader(s, seed)
	rng := gen.NewRNG(seed)
	startMS := endMS - workload.HistoryWindow.Milliseconds()
	var keyBuf, valBuf, padBuf []byte
	for k := int64(0); k < n; k++ {
		key := kvp.Key{Substation: substation, Sensor: s.Key, Timestamp: startMS + k*1000/historyPerSec}
		reading := reader.NextString()
		pad, err := kvp.PaddingFor(key, reading, s.Unit())
		if err != nil {
			c.Close()
			return err
		}
		if cap(padBuf) < pad {
			padBuf = make([]byte, pad)
		}
		v := kvp.Value{Reading: reading, Unit: s.Unit(), Padding: gen.Text(rng, padBuf[:pad])}
		keyBuf = key.Append(keyBuf[:0])
		valBuf = v.Append(valBuf[:0])
		if err := c.Put(keyBuf, valBuf); err != nil {
			c.Close()
			return err
		}
	}
	return c.Close()
}

// distinct draws k distinct indices below n.
func distinct(rng *gen.RNG, n, k int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < k {
		if i := rng.Intn(n); !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// settleCompactions waits until the preloaded history is compacted, so the
// measured window does not pay for set-up's compaction debt.
func settleCompactions(cl *hbase.Cluster) error {
	deadline := time.Now().Add(30 * time.Second)
	for cl.Storage().Totals.CompactionDebtBytes > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("compaction debt of the preload did not settle in 30 s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}
