package main

import (
	"runtime"
	"syscall"
	"time"

	"tpcxiot/internal/hbase"
	"tpcxiot/internal/histogram"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// The cluster every workload runs against: the CLI's defaults.
const (
	nodes            = 3
	replicas         = 3
	writeBuffer      = 256 << 10 // client write buffer, the CLI default
	walSync          = wal.SyncNever
	compactionWindow = 5 * time.Minute
)

// timestampClock returns the clock readings are stamped with: the wall
// clock shifted so the round starts phase into a compaction window. Where
// the round's data falls among the engine's time windows then does not
// depend on when the run starts, and compaction does the same work in
// every run. Only timestamps use it; latencies use the real clock.
func timestampClock(phase time.Duration) func() time.Time {
	now := time.Now()
	offset := now.Truncate(compactionWindow).Add(compactionWindow + phase).Sub(now)
	return func() time.Time { return time.Now().Add(offset) }
}

// Span sampling in the traced run: one client operation in traceEvery is
// traced, and the ring keeps up to traceBuffer completed traces, enough
// for every trace of one round's measured window.
const (
	traceEvery  = 16
	traceBuffer = 1 << 16
)

type metricDef struct{ name, unit string }

// e2eMetrics are measured with tracing off and printed with -trace 0.
// Each is defined on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"iotps", "readings/s"},
	{"ack_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"write_amp", "ratio"},
	{"space_amp", "ratio"},
	{"datacheck_s", "s"},
	{"peak_rss_mb", "MB"},
}

// reportedMetrics are end-to-end figures printed with -trace 0 above the
// result line but left out of it: their run-to-run spread exceeds the
// largest bound the result may carry (see README.md).
var reportedMetrics = []metricDef{
	{"ack_p99_ms", "ms"},
	{"scan_query_p50_ms", "ms"},
	{"scan_query_p99_ms", "ms"},
	{"agg_query_p50_ms", "ms"},
	{"agg_query_p99_ms", "ms"},
}

// layerMetrics come from the traced run and are printed with -trace 1.
// README.md names the end-to-end metric and workload each should move.
var layerMetrics = []metricDef{
	{"gen.ns_per_kvp", "ns"},
	{"ycsb.start_lag_p99_ms", "ms"},
	{"client.insert_ns", "ns"},
	{"client.flush_p50_ms", "ms"},
	{"client.flush_p99_ms", "ms"},
	{"client.flushes_per_kkvp", "count"},
	{"client.retries", "count"},
	{"client.flush.self_us", "us"},
	{"rpc.mutate.self_us", "us"},
	{"rpc.aggregate.self_us", "us"},
	{"server.handler_wait.self_us", "us"},
	{"hbase.sheds", "count"},
	{"replication.quorum_ack_p50_ms", "ms"},
	{"replication.full_ack_p99_ms", "ms"},
	{"replication.fanout.self_us", "us"},
	{"replication.quorum_wait.self_us", "us"},
	{"replication.catchup_batches", "count"},
	{"lsm.apply_batch.self_us", "us"},
	{"lsm.stall_wait.self_us", "us"},
	{"lsm.stalls", "count"},
	{"lsm.flushes", "count"},
	{"lsm.compactions", "count"},
	{"lsm.compact_write_bytes_per_kvp", "B"},
	{"wal.append.self_us", "us"},
	{"wal.append_p50_us", "us"},
	{"wal.bytes_per_kvp", "B"},
	{"lsm.memtable_insert.self_us", "us"},
	{"memtable.insert_p50_us", "us"},
	{"lsm.prune_time_skips_per_query", "count"},
	{"lsm.cache_hit_rate", "ratio"},
	{"lsm.disk_read_bytes_per_query", "B"},
	{"lsm.read_amp", "ratio"},
	{"client.scan_next_ns", "ns"},
	{"client.scan_chunk.self_us", "us"},
	{"rpc.scan_next.self_us", "us"},
	{"scan.next_p50_us", "us"},
	{"hbase.scan_chunks_per_query", "count"},
	{"hbase.scan_rows_streamed_per_query", "count"},
	{"scan_query_p50_ms", "ms"},
	{"scan_query_p99_ms", "ms"},
	{"client.aggregate_us", "us"},
	{"agg.fold_p50_us", "us"},
	{"agg.fold.self_us", "us"},
	{"hbase.agg_rows_folded_per_query", "count"},
	{"agg_query_p50_ms", "ms"},
	{"agg_query_p99_ms", "ms"},
	{"driver.quiesce_s", "s"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.iotps", "readings/s"},
	{"trace.sampled_puts", "count"},
	{"trace.dropped", "count"},
	{"trace.put_selftime_ratio", "ratio"},
}

// selfTimeMetrics maps each self-time metric to the sampled root operation
// it is averaged over and the span whose self-time it sums.
var selfTimeMetrics = []struct{ metric, root, span string }{
	{"client.flush.self_us", "client.put", "client.flush"},
	{"rpc.mutate.self_us", "client.put", "rpc.mutate"},
	{"rpc.aggregate.self_us", "client.aggregate", "rpc.aggregate"},
	{"server.handler_wait.self_us", "client.put", "server.handler_wait"},
	{"replication.fanout.self_us", "client.put", "replication.fanout"},
	{"replication.quorum_wait.self_us", "client.put", "replication.quorum_wait"},
	{"lsm.apply_batch.self_us", "client.put", "lsm.apply_batch"},
	{"lsm.stall_wait.self_us", "client.put", "lsm.stall_wait"},
	{"wal.append.self_us", "client.put", "wal.append"},
	{"lsm.memtable_insert.self_us", "client.put", "lsm.memtable_insert"},
	{"client.scan_chunk.self_us", "client.scan_chunk", "client.scan_chunk"},
	{"rpc.scan_next.self_us", "client.scan_chunk", "rpc.scan_next"},
	{"agg.fold.self_us", "client.aggregate", "agg.fold"},
}

// cluster is one round's system under test.
type cluster struct {
	*hbase.Cluster
	reg    *telemetry.Registry
	tracer *telemetry.Tracer // nil when untraced
}

func openCluster(rc roundConfig) (*cluster, error) {
	c := &cluster{reg: telemetry.NewRegistry()}
	if rc.traced {
		c.tracer = telemetry.NewTracer(telemetry.TracerOptions{
			SampleEvery:     traceEvery,
			BufferSize:      traceBuffer,
			SlowOpThreshold: -1,
		})
	}
	cl, err := hbase.NewCluster(hbase.Config{
		Nodes:             nodes,
		ReplicationFactor: replicas,
		DataDir:           rc.dir,
		Store:             lsm.Options{WALSync: walSync, WindowDuration: compactionWindow},
		Registry:          c.reg,
		Tracer:            c.tracer,
	})
	if err != nil {
		return nil, err
	}
	c.Cluster = cl
	return c, nil
}

// snapshot is the process and engine state at one edge of the measured
// window.
type snapshot struct {
	at      time.Time
	cpu     time.Duration // process user + system time
	mem     runtime.MemStats
	reg     *telemetry.Summary
	storage lsm.Stats // cluster-wide totals over every replica
}

// take captures the load-side state: the clock, CPU and allocations.
func (c *cluster) take() snapshot {
	s := snapshot{at: time.Now(), cpu: cpuTime()}
	runtime.ReadMemStats(&s.mem)
	c.settle(&s)
	return s
}

// settle (re)reads the engine-side state into s: counters and the storage
// ledger. The window's end snapshot is settled again
// after the quiesce, so catch-up work the window caused is counted.
func (c *cluster) settle(s *snapshot) {
	s.reg = c.reg.Summary()
	s.storage = c.Storage().Totals
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measured is everything one round observed about its measured window.
type measured struct {
	setup      time.Duration
	start, end snapshot
	probes     []*probeDB // the load threads active in the window
	iotps      float64
	kvps       int64 // readings acknowledged in the window
	quiesce    time.Duration
	datacheck  time.Duration
	tracer     *telemetry.Tracer
}

// in reports whether an operation due at t belongs to the window.
func (m *measured) in(t time.Time) bool {
	return !t.Before(m.start.at) && t.Before(m.end.at)
}

func (m *measured) samples(pick func(*probeDB) []sample) []float64 {
	var out []float64
	for _, p := range m.probes {
		for _, s := range pick(p) {
			if m.in(s.due) {
				out = append(out, s.ms)
			}
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pooled names the latency percentiles a run computes over the raw
// samples of all its rounds together, rather than as a median of
// per-round percentiles: a tail or a rare operation then rests on every
// sample the run took.
var pooled = map[string]struct {
	samples string
	p       float64
}{
	"ack_p50_ms":            {"ack", 50},
	"ack_p99_ms":            {"ack", 99},
	"query_p50_ms":          {"query", 50},
	"ycsb.start_lag_p99_ms": {"lag", 99},
	"scan_query_p50_ms":     {"scan", 50},
	"scan_query_p99_ms":     {"scan", 99},
	"agg_query_p50_ms":      {"agg", 50},
	"agg_query_p99_ms":      {"agg", 99},
}

// metrics derives every metric of the round from the window, end-to-end
// and per-layer alike, and returns the latency samples the pooled
// percentiles are taken over; attempted counts the window's operations
// (readings plus queries).
func (m *measured) metrics() (out map[string]float64, samples map[string][]float64, attempted int64) {
	scans := m.samples(func(p *probeDB) []sample { return p.scanQueries })
	aggs := m.samples(func(p *probeDB) []sample { return p.aggQueries })
	analytic := m.samples(func(p *probeDB) []sample { return p.analyticQueries })
	samples = map[string][]float64{
		"ack":   m.samples(func(p *probeDB) []sample { return p.acks }),
		"lag":   m.samples(func(p *probeDB) []sample { return p.lags }),
		"scan":  scans,
		"agg":   aggs,
		"query": append(append([]float64(nil), scans...), aggs...),
	}
	nScans, nAggs := float64(len(scans)), float64(len(aggs)+len(analytic))
	nQueries := nScans + nAggs
	ops := float64(m.kvps) + nQueries
	st := statsDelta(m.end.storage, m.start.storage)
	cpu := m.end.cpu - m.start.cpu
	kvps := float64(m.kvps)

	var b struct{ gen, genN, buf, bufN, next, nextN, agg, aggN int64 }
	for _, p := range m.probes {
		b.gen += p.genNs
		b.genN += p.genN
		b.buf += p.bufferNs
		b.bufN += p.bufferN
		b.next += p.scanNextNs
		b.nextN += p.scanNextN
		b.agg += p.aggNs
		b.aggN += p.aggN
	}
	counter := func(name string) float64 {
		return float64(m.end.reg.Counter(name) - m.start.reg.Counter(name))
	}
	hist := func(name string) histogram.Snapshot {
		end, _ := m.end.reg.Histogram(name)
		start, _ := m.start.reg.Histogram(name)
		return end.Sub(start)
	}
	nsTo := func(v int64, unit time.Duration) float64 { return float64(v) / float64(unit) }

	out = map[string]float64{
		"setup_s":       m.setup.Seconds(),
		"iotps":         m.iotps,
		"cpu_us_per_op": ratio(float64(cpu)/float64(time.Microsecond), ops),
		"space_amp": ratio(float64(m.end.storage.TableBytes+m.end.storage.MemtableBytes),
			float64(m.end.storage.LogicalBytes)),
		"datacheck_s": m.datacheck.Seconds(),

		"gen.ns_per_kvp":                     ratio(float64(b.gen), float64(b.genN)),
		"client.insert_ns":                   ratio(float64(b.buf), float64(b.bufN)),
		"client.flush_p50_ms":                nsTo(hist("put.client_flush").Percentile(50), time.Millisecond),
		"client.flush_p99_ms":                nsTo(hist("put.client_flush").Percentile(99), time.Millisecond),
		"client.flushes_per_kkvp":            1000 * ratio(counter("hbase.buffer_flushes"), kvps),
		"client.retries":                     counter("hbase.client_retries"),
		"hbase.sheds":                        counter("hbase.sheds"),
		"replication.quorum_ack_p50_ms":      nsTo(hist("replication.quorum_ack").Percentile(50), time.Millisecond),
		"replication.full_ack_p99_ms":        nsTo(hist("replication.full_ack").Percentile(99), time.Millisecond),
		"replication.catchup_batches":        counter("replication.catchup_batches"),
		"lsm.stalls":                         float64(st.StallEvents),
		"lsm.flushes":                        float64(st.Flushes),
		"lsm.compactions":                    float64(st.Compactions),
		"lsm.compact_write_bytes_per_kvp":    ratio(float64(st.CompactWriteBytes), kvps),
		"wal.append_p50_us":                  nsTo(hist("put.wal_append").Percentile(50), time.Microsecond),
		"wal.bytes_per_kvp":                  ratio(counter("wal.bytes"), kvps),
		"memtable.insert_p50_us":             nsTo(hist("put.memstore").Percentile(50), time.Microsecond),
		"lsm.prune_time_skips_per_query":     ratio(float64(st.PruneTimeSkips), nQueries),
		"lsm.cache_hit_rate":                 st.CacheHitRate(),
		"lsm.disk_read_bytes_per_query":      ratio(float64(st.DiskReadBytes), nQueries),
		"lsm.read_amp":                       st.ReadAmplification(),
		"client.scan_next_ns":                ratio(float64(b.next), float64(b.nextN)),
		"scan.next_p50_us":                   nsTo(hist("scan.next").Percentile(50), time.Microsecond),
		"hbase.scan_chunks_per_query":        ratio(counter("hbase.scan_chunks"), nScans),
		"hbase.scan_rows_streamed_per_query": ratio(counter("hbase.scan_rows_streamed"), nScans),
		"client.aggregate_us":                ratio(float64(b.agg)/1e3, float64(b.aggN)),
		"agg.fold_p50_us":                    nsTo(hist("agg.fold").Percentile(50), time.Microsecond),
		"hbase.agg_rows_folded_per_query":    ratio(counter("hbase.agg_rows_folded"), nAggs),
		"driver.quiesce_s":                   m.quiesce.Seconds(),
		"runtime.alloc_bytes_per_op":         ratio(float64(m.end.mem.TotalAlloc-m.start.mem.TotalAlloc), ops),
		"runtime.allocs_per_op":              ratio(float64(m.end.mem.Mallocs-m.start.mem.Mallocs), ops),
		"runtime.gc_pause_ms":                nsTo(int64(m.end.mem.PauseTotalNs-m.start.mem.PauseTotalNs), time.Millisecond),
		"trace.iotps":                        m.iotps,
	}
	for name, q := range pooled {
		out[name] = percentile(append([]float64(nil), samples[q.samples]...), q.p)
	}
	// Write amplification is pooled as a ratio of sums: a window holds only
	// a few compactions on the light-ingest workload, so one more or less
	// in a round moves that round's ratio.
	samples["write_physical"] = []float64{float64(st.WALBytes + st.FlushBytes + st.CompactWriteBytes)}
	samples["write_logical"] = []float64{float64(st.LogicalBytes)}
	out["write_amp"] = st.WriteAmplification()

	// Self-times of the traces whose root started inside the window.
	var inWindow []*telemetry.Trace
	for _, tr := range m.tracer.Traces() {
		if m.in(time.Unix(0, tr.Root().StartNs)) {
			inWindow = append(inWindow, tr)
		}
	}
	fold := foldSelfTimes(inWindow)
	for _, s := range selfTimeMetrics {
		if r := fold[s.root]; r != nil {
			out[s.metric] = ratio(r.self[s.span]/1e3, float64(r.count))
		} else {
			out[s.metric] = 0
		}
	}
	put := fold["client.put"]
	if put == nil {
		put = &rootFold{}
	}
	var putSelf float64
	for _, v := range put.self {
		putSelf += v
	}
	out["trace.sampled_puts"] = float64(put.count)
	out["trace.put_selftime_ratio"] = ratio(putSelf, put.rootNs)
	// The ring overwrites its oldest traces once full.
	out["trace.dropped"] = float64(m.tracer.CompletedCount() - int64(len(m.tracer.Traces())))
	return out, samples, int64(ops)
}

// statsDelta is the ledger's growth from a to b over the counters the
// metrics read.
func statsDelta(b, a lsm.Stats) lsm.Stats {
	return lsm.Stats{
		Flushes:           b.Flushes - a.Flushes,
		Compactions:       b.Compactions - a.Compactions,
		StallEvents:       b.StallEvents - a.StallEvents,
		LogicalBytes:      b.LogicalBytes - a.LogicalBytes,
		WALBytes:          b.WALBytes - a.WALBytes,
		FlushBytes:        b.FlushBytes - a.FlushBytes,
		CompactWriteBytes: b.CompactWriteBytes - a.CompactWriteBytes,
		LogicalReadBytes:  b.LogicalReadBytes - a.LogicalReadBytes,
		DiskReadBytes:     b.DiskReadBytes - a.DiskReadBytes,
		CacheHits:         b.CacheHits - a.CacheHits,
		CacheMisses:       b.CacheMisses - a.CacheMisses,
		PruneTimeSkips:    b.PruneTimeSkips - a.PruneTimeSkips,
	}
}
