package main

import (
	"sync"
	"time"

	"tpcxiot/internal/driver"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/ycsb"
)

// table is the benchmark table driver.NewClusterSUT creates.
const table = "iot"

// probeSUT wraps the driver's ClusterSUT so the benchmark sees what the
// driver does to it: it hands every load thread a probeDB, times the
// driver's quiesce and stored-rows count, and marks the measured window.
type probeSUT struct {
	*driver.ClusterSUT
	cl          *hbase.Cluster
	tcp         bool
	writeBuffer int64
	perThread   float64 // paced ops/s of each load thread; 0 = open loop

	// beforeQuiesce and afterQuiesce, when set, run around every quiesce
	// (the end of each workload execution) with the execution's 1-based
	// index: the driver counts stored rows right after the last one.
	beforeQuiesce, afterQuiesce func(exec int)
	execs                       int

	quiesceTime   time.Duration // the last quiesce
	countRowsTime time.Duration // the last stored-rows count

	mu  sync.Mutex
	dbs []*probeDB
}

func newProbeSUT(sut *driver.ClusterSUT, cl *hbase.Cluster, tcp bool, writeBuffer int64, perThread float64) *probeSUT {
	return &probeSUT{ClusterSUT: sut, cl: cl, tcp: tcp, writeBuffer: writeBuffer, perThread: perThread}
}

// Binding implements driver.SUT: one probed client per load thread. The
// ycsb runner calls the binding right after it fixes the thread's pacing
// origin, so the probe's schedule matches the runner's to within the call.
func (s *probeSUT) Binding(int) ycsb.Binding {
	return func(int) (ycsb.DB, error) { return s.newDB(s.perThread) }
}

func (s *probeSUT) newDB(rate float64) (*probeDB, error) {
	origin := time.Now()
	var (
		c   *hbase.Client
		err error
	)
	if s.tcp {
		c, err = s.cl.NewTCPClient(table, s.writeBuffer)
	} else {
		c, err = s.cl.NewClient(table, s.writeBuffer)
	}
	if err != nil {
		return nil, err
	}
	db := &probeDB{c: c, rate: rate, origin: origin}
	s.mu.Lock()
	s.dbs = append(s.dbs, db)
	s.mu.Unlock()
	return db, nil
}

// Quiesce implements driver.Quiescer, timed.
func (s *probeSUT) Quiesce() error {
	s.execs++
	if s.beforeQuiesce != nil {
		s.beforeQuiesce(s.execs)
	}
	t := time.Now()
	err := s.ClusterSUT.Quiesce()
	s.quiesceTime = time.Since(t)
	if s.afterQuiesce != nil {
		s.afterQuiesce(s.execs)
	}
	return err
}

// CountRows implements driver.RowCounter, timed.
func (s *probeSUT) CountRows() (int64, error) {
	t := time.Now()
	n, err := s.ClusterSUT.CountRows()
	s.countRowsTime = time.Since(t)
	return n, err
}

// probes returns every probeDB handed out so far. Call it only once the
// threads using them have finished.
func (s *probeSUT) probes() []*probeDB {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*probeDB(nil), s.dbs...)
}

// sample is one measured latency, stamped with the operation's due time so
// the caller can keep only operations due inside the measured window.
type sample struct {
	due time.Time
	ms  float64
}

// probeDB is a ycsb.DB over one hbase.Client that records, from outside
// the program, what one load thread experienced:
//
//   - ack latency per reading: from its due time until the Put whose flush
//     carried it returns (the client's buffer drops to empty);
//   - query latency per query operation, until its result;
//   - the time the thread spent outside DB calls before each insert (the
//     key/value generation in ThreadWorkload.Next), and how late each
//     insert started against its due time.
//
// An operation's due time follows the ycsb runner's fixed schedule, op i
// at origin + i/rate, when the thread is paced; an open-loop operation is
// due when it starts. A query is the run of read calls between two inserts
// (or closed explicitly with endQuery by a caller issuing only queries).
type probeDB struct {
	c      *hbase.Client
	rate   float64
	origin time.Time
	ops    int64 // operations started, the schedule index
	// queryThread marks a thread issuing only queries on its own schedule;
	// their latency counts from the due time. A query riding a load thread
	// counts from its start: the lateness it inherits from the readings
	// before it is already charged to their acknowledgements.
	queryThread bool

	pending    []time.Time // due times of readings still in the buffer
	lastReturn time.Time

	inQuery       bool
	queryDue      time.Time
	queryEnd      time.Time
	queryAgg      bool // pushed down
	queryAnalytic bool // asked for per-window partials

	acks []sample
	// Dashboard-template queries by path, and the analytic templates
	// (downsample, window-count), which aggregate per window.
	scanQueries, aggQueries, analyticQueries []sample
	lags                                     []sample // start lag of paced inserts
	insertErrs                               int64

	bufferNs, bufferN int64 // Put calls that only buffered
	genNs, genN       int64 // gaps before inserts the pacer did not sleep in
	scanNextNs        int64
	scanNextN         int64
	aggNs, aggN       int64
}

// due returns the next operation's due time and advances the schedule.
func (p *probeDB) due(now time.Time) time.Time {
	d := now
	if p.rate > 0 {
		d = p.origin.Add(time.Duration(float64(p.ops) / p.rate * float64(time.Second)))
	}
	p.ops++
	return d
}

// Insert implements ycsb.DB.
func (p *probeDB) Insert(key, value []byte) error {
	start := time.Now()
	p.endQuery()
	due := p.due(start)
	if p.rate > 0 {
		p.lags = append(p.lags, sample{due, millis(start.Sub(due))})
	}
	// A gap the pacer did not sleep in is pure thread work: generating the
	// reading plus the runner's bookkeeping.
	if !p.lastReturn.IsZero() && (p.rate == 0 || !p.lastReturn.Before(due)) {
		p.genNs += start.Sub(p.lastReturn).Nanoseconds()
		p.genN++
	}
	err := p.c.Put(key, value)
	end := time.Now()
	p.lastReturn = end
	p.pending = append(p.pending, due)
	if err != nil {
		p.insertErrs++
		return err
	}
	if p.c.BufferedBytes() == 0 {
		p.ack(end)
	} else {
		p.bufferNs += end.Sub(start).Nanoseconds()
		p.bufferN++
	}
	return nil
}

// ack records every buffered reading as acknowledged at t.
func (p *probeDB) ack(t time.Time) {
	for _, d := range p.pending {
		p.acks = append(p.acks, sample{d, millis(t.Sub(d))})
	}
	p.pending = p.pending[:0]
}

// read opens or continues a query operation.
func (p *probeDB) read(now time.Time) {
	if !p.inQuery {
		p.inQuery = true
		p.queryDue = p.due(now)
		if !p.queryThread {
			p.queryDue = now
		}
		p.queryAgg = false
		p.queryAnalytic = false
	}
}

// readDone notes the end of one read call of the current query.
func (p *probeDB) readDone() {
	p.queryEnd = time.Now()
	p.lastReturn = p.queryEnd
}

// endQuery closes the current query operation, if any.
func (p *probeDB) endQuery() {
	if !p.inQuery {
		return
	}
	p.inQuery = false
	s := sample{p.queryDue, millis(p.queryEnd.Sub(p.queryDue))}
	switch {
	case p.queryAnalytic:
		p.analyticQueries = append(p.analyticQueries, s)
	case p.queryAgg:
		p.aggQueries = append(p.aggQueries, s)
	default:
		p.scanQueries = append(p.scanQueries, s)
	}
}

// Read implements ycsb.DB.
func (p *probeDB) Read(key []byte) ([]byte, bool, error) {
	p.read(time.Now())
	defer p.readDone()
	return p.c.Get(key)
}

// Scan implements ycsb.DB.
func (p *probeDB) Scan(lo, hi []byte, limit int) ([]ycsb.KV, error) {
	p.read(time.Now())
	defer p.readDone()
	rows, err := p.c.Scan(lo, hi, limit)
	if err != nil {
		return nil, err
	}
	out := make([]ycsb.KV, len(rows))
	for i, r := range rows {
		out[i] = ycsb.KV{Key: r.Key, Value: r.Value}
	}
	return out, nil
}

// ScanIter implements ycsb.DB over the client's streaming scanner.
func (p *probeDB) ScanIter(lo, hi []byte, limit int) (ycsb.RowIter, error) {
	p.read(time.Now())
	defer p.readDone()
	sc, err := p.c.NewScanner(lo, hi, limit)
	if err != nil {
		return nil, err
	}
	return &probeIter{p: p, sc: sc}, nil
}

// Aggregate implements ycsb.Aggregator over the pushdown RPC.
func (p *probeDB) Aggregate(lo, hi []byte, minTS, maxTS, windowMS int64, funcs ycsb.AggFuncs) ([]ycsb.AggWindow, int64, error) {
	start := time.Now()
	p.read(start)
	p.queryAgg = true
	p.queryAnalytic = p.queryAnalytic || windowMS > 0
	defer p.readDone()
	res, err := p.c.Aggregate(lo, hi, minTS, maxTS, windowMS, lsm.AggFuncs(funcs))
	p.aggNs += time.Since(start).Nanoseconds()
	p.aggN++
	if err != nil {
		return nil, 0, err
	}
	out := make([]ycsb.AggWindow, len(res.Windows))
	for i, w := range res.Windows {
		out[i] = ycsb.AggWindow{Series: w.Series, WindowStart: w.WindowStart,
			Count: w.Count, Min: w.Min, Max: w.Max, Sum: w.Sum}
	}
	return out, res.RowsFolded, nil
}

// Close implements ycsb.DB: the closing flush acknowledges what is left.
func (p *probeDB) Close() error {
	p.endQuery()
	err := p.c.Close()
	if err == nil {
		p.ack(time.Now())
	}
	return err
}

// probeIter times the streamed scan's Next calls.
type probeIter struct {
	p  *probeDB
	sc *hbase.Scanner
}

func (it *probeIter) Next() (ycsb.KV, bool, error) {
	t := time.Now()
	row, ok, err := it.sc.Next()
	it.p.scanNextNs += time.Since(t).Nanoseconds()
	it.p.scanNextN++
	it.p.readDone()
	return ycsb.KV{Key: row.Key, Value: row.Value}, ok, err
}

func (it *probeIter) Close() error {
	err := it.sc.Close()
	it.p.readDone()
	return err
}
