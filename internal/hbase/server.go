package hbase

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/region"
	"tpcxiot/internal/replication"
	"tpcxiot/internal/telemetry"
)

// ErrUnknownScanner is returned by next/close for a scanner id the server
// does not hold — never issued, already exhausted, or reclaimed by lease
// expiry.
var ErrUnknownScanner = errors.New("hbase: unknown scanner (closed or lease expired)")

// ErrOverloaded is the retryable load-shed sentinel: the server refused a
// mutate because its handler queue or a replication catch-up queue exceeded
// its watermark. Match with errors.Is; the concrete *OverloadedError
// carries the retry-after hint.
var ErrOverloaded = errors.New("hbase: server overloaded")

// OverloadedError is the typed retryable error a load-shed returns:
// errors.Is(err, ErrOverloaded) identifies it, RetryAfter hints how long
// the client should back off before retrying. It crosses the TCP protocol
// as a dedicated status frame, so remote clients see the same type.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("hbase: server overloaded, retry after %s", e.RetryAfter)
}

func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// RegionServer hosts region replicas and bounds request concurrency with a
// handler pool, mirroring hbase.regionserver.handler.count.
type RegionServer struct {
	id       int
	dir      string
	service  string // trace-span service label, e.g. "server-2"
	handlers chan struct{}

	// Admission control: mutates queueing for a handler slot beyond
	// shedWatermark are refused with a retryable OverloadedError instead of
	// blocking without bound. shedWatermark < 0 disables shedding.
	shedWatermark int
	waiting       atomic.Int64 // mutates currently queued for a slot
	sheds         atomic.Int64 // mutates refused
	shedStreak    atomic.Int64 // consecutive sheds since the last admit

	mu      sync.RWMutex
	regions map[string]*region.Region // every replica hosted here

	// Scanner sessions: long-lived server-side scanners (HBase's
	// RegionScanner), each pinning an LSM snapshot. Sessions are leased;
	// ones a client abandons are reclaimed on the next sweep.
	scanMu     sync.Mutex
	scanners   map[uint64]*scannerSession
	nextScanID uint64
	leaseDur   time.Duration

	requests  atomic.Int64
	mutations atomic.Int64
	rowsRead  atomic.Int64

	met serverMetrics
}

// serverMetrics holds the read-path instruments, resolved once at server
// construction. All nil-safe.
type serverMetrics struct {
	scannerOpens  *telemetry.Counter // hbase.scanner_opens
	scanChunks    *telemetry.Counter // hbase.scan_chunks
	rowsStreamed  *telemetry.Counter // hbase.scan_rows_streamed
	leaseExpiries *telemetry.Counter // hbase.scanner_lease_expiries
	nextSpan      *telemetry.Timer   // scan.next: one chunk fetch

	// Per-server tagged variants ({server=N}) of the scan counters, so the
	// registry can break the read path down per region server. The untagged
	// instruments above remain the cluster-wide roll-up.
	scanChunksTagged   *telemetry.Counter
	rowsStreamedTagged *telemetry.Counter

	// Admission-control instruments.
	shedsC      *telemetry.Counter // hbase.sheds: mutates refused under overload
	shedsTagged *telemetry.Counter // hbase.sheds{server=N}

	// Aggregation-pushdown instruments: queries served, rows folded into
	// partial aggregates inside the server (rows that never crossed the
	// wire), and window partials returned. aggSpan times one server-side
	// fold ("agg.fold" in the trace tree).
	aggQueries    *telemetry.Counter // hbase.agg_queries
	aggRowsFolded *telemetry.Counter // hbase.agg_rows_folded
	aggWindows    *telemetry.Counter // hbase.agg_windows
	aggSpan       *telemetry.Timer   // agg.fold: one region fold

	aggQueriesTagged    *telemetry.Counter
	aggRowsFoldedTagged *telemetry.Counter
}

// scannerSession is one open server-side scanner. While a next call is
// advancing it, the session is checked out of the table, so the lease
// sweeper never closes an iterator mid-use; the single-caller client
// contract means no second next for the same id runs concurrently.
type scannerSession struct {
	id        uint64
	it        *lsm.Iter
	limited   bool
	remaining int // rows the scan may still return; meaningful when limited
	deadline  time.Time
}

// ServerStats is a snapshot of one server's counters.
type ServerStats struct {
	ID           int
	Regions      int
	Requests     int64
	Mutations    int64
	RowsRead     int64
	OpenScanners int
	// Sheds counts mutates refused under overload; ShedStreak is the run of
	// consecutive sheds since the last mutate that was admitted and applied
	// — the sustained-overload signal /healthz keys its 503 on.
	Sheds      int64
	ShedStreak int64
}

func newRegionServer(id int, dir string, handlerCount, shedWatermark int, leaseDur time.Duration, reg *telemetry.Registry) *RegionServer {
	serverTag := telemetry.Tag{Key: "server", Value: strconv.Itoa(id)}
	return &RegionServer{
		id:            id,
		dir:           dir,
		service:       "server-" + strconv.Itoa(id),
		handlers:      make(chan struct{}, handlerCount),
		shedWatermark: shedWatermark,
		regions:       make(map[string]*region.Region),
		scanners:      make(map[uint64]*scannerSession),
		leaseDur:      leaseDur,
		met: serverMetrics{
			scannerOpens:       reg.Counter("hbase.scanner_opens"),
			scanChunks:         reg.Counter("hbase.scan_chunks"),
			rowsStreamed:       reg.Counter("hbase.scan_rows_streamed"),
			leaseExpiries:      reg.Counter("hbase.scanner_lease_expiries"),
			nextSpan:           reg.Timer("scan.next"),
			scanChunksTagged:   reg.CounterTagged("hbase.scan_chunks", serverTag),
			rowsStreamedTagged: reg.CounterTagged("hbase.scan_rows_streamed", serverTag),
			shedsC:             reg.Counter("hbase.sheds"),
			shedsTagged:        reg.CounterTagged("hbase.sheds", serverTag),

			aggQueries:          reg.Counter("hbase.agg_queries"),
			aggRowsFolded:       reg.Counter("hbase.agg_rows_folded"),
			aggWindows:          reg.Counter("hbase.agg_windows"),
			aggSpan:             reg.Timer("agg.fold"),
			aggQueriesTagged:    reg.CounterTagged("hbase.agg_queries", serverTag),
			aggRowsFoldedTagged: reg.CounterTagged("hbase.agg_rows_folded", serverTag),
		},
	}
}

// ID returns the server's index in the cluster.
func (s *RegionServer) ID() int { return s.id }

// acquire blocks until a handler is free; release returns it.
func (s *RegionServer) acquire() { s.handlers <- struct{}{} }
func (s *RegionServer) release() { <-s.handlers }

// admit is acquire with load shedding, used by the write path: a free
// handler slot is always taken, but once shedWatermark mutates are already
// queued the request is refused with a retryable OverloadedError instead of
// deepening the queue. The retry-after hint scales with the queue depth,
// spreading the retry herd.
func (s *RegionServer) admit() error {
	select {
	case s.handlers <- struct{}{}:
		return nil
	default:
	}
	waiting := s.waiting.Load()
	if s.shedWatermark >= 0 && waiting >= int64(s.shedWatermark) {
		return s.shed(waiting)
	}
	s.waiting.Add(1)
	s.handlers <- struct{}{}
	s.waiting.Add(-1)
	return nil
}

// shed records one refused mutate and builds its typed retryable error.
func (s *RegionServer) shed(depth int64) error {
	s.sheds.Add(1)
	s.shedStreak.Add(1)
	s.met.shedsC.Inc()
	s.met.shedsTagged.Inc()
	hint := time.Duration(depth+1) * time.Millisecond
	if hint > 50*time.Millisecond {
		hint = 50 * time.Millisecond
	}
	return &OverloadedError{RetryAfter: hint}
}

// openRegion creates or reopens a region replica on this server. The
// replica's store registers its instruments under {region=..., server=...}
// tags in addition to the cluster-wide roll-up.
func (s *RegionServer) openRegion(info region.Info, storeOpts lsm.Options) (*region.Region, error) {
	storeOpts.Tags = []telemetry.Tag{
		{Key: "region", Value: info.Name},
		{Key: "server", Value: strconv.Itoa(s.id)},
	}
	r, err := region.Open(info, s.dir, storeOpts)
	if err != nil {
		return nil, fmt.Errorf("hbase: server %d: %w", s.id, err)
	}
	s.mu.Lock()
	s.regions[info.Name] = r
	s.mu.Unlock()
	return r, nil
}

// forgetRegion drops the routing entry for a destroyed region.
func (s *RegionServer) forgetRegion(name string) {
	s.mu.Lock()
	delete(s.regions, name)
	s.mu.Unlock()
}

// Regions returns the replicas hosted on this server, sorted by region
// name, for introspection (the cluster's /storage and /healthz documents).
func (s *RegionServer) Regions() []*region.Region {
	s.mu.RLock()
	out := make([]*region.Region, 0, len(s.regions))
	for _, r := range s.regions {
		out = append(out, r)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Info().Name < out[j].Info().Name })
	return out
}

// Mutation is one write in a batched RPC. It is an alias for the engine's
// batch element, so a client batch flows through replication into the LSM
// stores without per-layer conversion or copying.
type Mutation = lsm.Write

// mutate is the server-side write RPC: the whole batch executes under one
// handler slot and ships through the region's replication group as a single
// batched round — one WAL group append and one memtable critical section
// per replica, with the replica fan-out running in parallel. Under a live
// parent the RPC appears as a "server.mutate" span in this server's
// service, with a "server.handler_wait" child covering time queued for a
// handler slot and the replication/engine spans beneath.
func (s *RegionServer) mutate(parent telemetry.TSpan, g *replication.Group, batch []Mutation) error {
	sp := parent.ChildIn(s.service, "server.mutate")
	defer sp.End()
	waitSp := sp.Child("server.handler_wait")
	if err := s.admit(); err != nil {
		waitSp.End()
		return err
	}
	waitSp.End()
	defer s.release()
	s.requests.Add(1)
	if err := g.ApplyBatch(sp, batch); err != nil {
		// A full catch-up queue is the replication layer's overload signal:
		// surface it as the same retryable shed the handler queue produces.
		if errors.Is(err, replication.ErrCatchUpFull) {
			return s.shed(int64(g.MaxQueueDepth()))
		}
		return err
	}
	s.mutations.Add(int64(len(batch)))
	// A mutate that was admitted AND applied ends any shed streak — the
	// streak measures sheds with no successful write in between, whichever
	// layer (handler queue or catch-up queue) produced them.
	s.shedStreak.Store(0)
	return nil
}

// get is the server-side point-read RPC, served from the primary replica
// ("server.get" in the trace tree).
func (s *RegionServer) get(parent telemetry.TSpan, r *region.Region, key []byte) ([]byte, bool, error) {
	sp := parent.ChildIn(s.service, "server.get")
	defer sp.End()
	waitSp := sp.Child("server.handler_wait")
	s.acquire()
	waitSp.End()
	defer s.release()
	s.requests.Add(1)
	v, ok, err := r.Get(key)
	if ok {
		s.rowsRead.Add(1)
	}
	return v, ok, err
}

// Row is one key-value pair returned by a scan chunk. Rows are owned
// copies, safe to retain.
type Row struct {
	Key   []byte
	Value []byte
}

// openScanner is the scanner-session open RPC: it pins an LSM snapshot over
// [lo, hi) on the region and registers a leased session. limit <= 0 means
// unlimited. The scanner id is only meaningful on this server
// ("server.scan_open" in the trace tree).
func (s *RegionServer) openScanner(parent telemetry.TSpan, r *region.Region, lo, hi []byte, limit int) (uint64, error) {
	sp := parent.ChildIn(s.service, "server.scan_open")
	defer sp.End()
	waitSp := sp.Child("server.handler_wait")
	s.acquire()
	waitSp.End()
	defer s.release()
	s.requests.Add(1)
	it, err := r.NewIterator(lo, hi)
	if err != nil {
		return 0, err
	}
	sess := &scannerSession{it: it, limited: limit > 0, remaining: limit}
	s.scanMu.Lock()
	s.sweepExpiredLocked(time.Now())
	s.nextScanID++
	sess.id = s.nextScanID
	sess.deadline = time.Now().Add(s.leaseDur)
	s.scanners[sess.id] = sess
	s.scanMu.Unlock()
	s.met.scannerOpens.Inc()
	return sess.id, nil
}

// next is the scanner-session read RPC: it returns up to chunk rows under
// ONE handler slot — a long scan occupies a handler per chunk, not for its
// whole lifetime, so concurrent ingest keeps flowing between chunks.
// more=false means the scan is finished (bound, limit or error) and the
// server has already closed the session ("server.scan_next" in the trace
// tree).
func (s *RegionServer) next(parent telemetry.TSpan, id uint64, chunk int) (rows []Row, more bool, err error) {
	tsp := parent.ChildIn(s.service, "server.scan_next")
	defer tsp.End()
	waitSp := tsp.Child("server.handler_wait")
	s.acquire()
	waitSp.End()
	defer s.release()
	s.requests.Add(1)
	sp := s.met.nextSpan.Start()
	defer sp.End()
	if chunk <= 0 {
		chunk = defaultScanChunk
	}

	sess, err := s.checkoutScanner(id)
	if err != nil {
		return nil, false, err
	}
	if sess.limited && chunk > sess.remaining {
		chunk = sess.remaining
	}

	// Copy once at the ownership boundary: the iterator's slices are only
	// valid until its next advance, so each key/value is appended to a
	// per-chunk arena the returned rows alias — one copy, one allocation,
	// per chunk (plus the row headers).
	it := sess.it
	var (
		arena []byte
		meta  []int // interleaved key/value lengths
	)
	n := 0
	for it.Valid() && n < chunk {
		arena = append(arena, it.Key()...)
		arena = append(arena, it.Value()...)
		meta = append(meta, len(it.Key()), len(it.Value()))
		n++
		it.Next()
	}
	rows = make([]Row, n)
	off := 0
	for i := 0; i < n; i++ {
		kl, vl := meta[2*i], meta[2*i+1]
		rows[i] = Row{
			Key:   arena[off : off+kl : off+kl],
			Value: arena[off+kl : off+kl+vl : off+kl+vl],
		}
		off += kl + vl
	}

	if sess.limited {
		sess.remaining -= n
	}
	iterErr := it.Error()
	finished := iterErr != nil || !it.Valid() || (sess.limited && sess.remaining <= 0)
	if finished {
		it.Close()
	} else {
		s.checkinScanner(sess)
	}

	s.rowsRead.Add(int64(n))
	s.met.scanChunks.Inc()
	s.met.rowsStreamed.Add(int64(n))
	s.met.scanChunksTagged.Inc()
	s.met.rowsStreamedTagged.Add(int64(n))
	return rows, !finished, iterErr
}

// aggregate is the server-side aggregation RPC: one handler slot covers the
// whole fold, which runs inside the region against a snapshot-pinned
// iterator with file-level key/time/Bloom pruning, and only the per-window
// partials come back — the rows are reduced where they live. Reads take
// acquire (never shed), consistent with get and the scanner RPCs. Under a
// live parent the RPC appears as "server.aggregate" in this server's
// service with the handler wait and the fold ("agg.fold") as children.
func (s *RegionServer) aggregate(parent telemetry.TSpan, r *region.Region, lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) (lsm.AggResult, error) {
	tsp := parent.ChildIn(s.service, "server.aggregate")
	defer tsp.End()
	waitSp := tsp.Child("server.handler_wait")
	s.acquire()
	waitSp.End()
	defer s.release()
	s.requests.Add(1)

	foldSp := tsp.Child("agg.fold")
	sp := s.met.aggSpan.Start()
	res, err := r.AggregateTime(lo, hi, minTS, maxTS, windowMS, funcs)
	sp.End()
	foldSp.End()
	if err != nil {
		return lsm.AggResult{}, err
	}
	s.rowsRead.Add(res.RowsFolded)
	s.met.aggQueries.Inc()
	s.met.aggRowsFolded.Add(res.RowsFolded)
	s.met.aggWindows.Add(int64(len(res.Windows)))
	s.met.aggQueriesTagged.Inc()
	s.met.aggRowsFoldedTagged.Add(res.RowsFolded)
	return res, nil
}

// closeScanner is the scanner-session close RPC. Closing an id the server
// no longer holds (already exhausted, or lease-reclaimed) is a no-op:
// close is how clients abandon scans, and the race with expiry is benign.
func (s *RegionServer) closeScanner(id uint64) error {
	s.acquire()
	defer s.release()
	s.requests.Add(1)
	sess, err := s.checkoutScanner(id)
	if err != nil {
		return nil
	}
	return sess.it.Close()
}

// checkoutScanner removes the session from the table for exclusive use;
// callers must check it back in (or close it) before returning.
func (s *RegionServer) checkoutScanner(id uint64) (*scannerSession, error) {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	s.sweepExpiredLocked(time.Now())
	sess, ok := s.scanners[id]
	if !ok {
		return nil, ErrUnknownScanner
	}
	delete(s.scanners, id)
	return sess, nil
}

// checkinScanner returns a checked-out session with a renewed lease.
func (s *RegionServer) checkinScanner(sess *scannerSession) {
	s.scanMu.Lock()
	sess.deadline = time.Now().Add(s.leaseDur)
	s.scanners[sess.id] = sess
	s.scanMu.Unlock()
}

// sweepExpiredLocked reclaims sessions whose lease lapsed, releasing their
// pinned snapshots. Caller holds scanMu. The sweep runs on every scanner
// RPC, so an abandoned scanner survives at most one lease period past the
// next scanner activity on the server.
func (s *RegionServer) sweepExpiredLocked(now time.Time) {
	for id, sess := range s.scanners {
		if now.After(sess.deadline) {
			sess.it.Close()
			delete(s.scanners, id)
			s.met.leaseExpiries.Inc()
		}
	}
}

// OpenScannerCount reports live scanner sessions, for tests and stats.
func (s *RegionServer) OpenScannerCount() int {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	return len(s.scanners)
}

// Stats snapshots the server's counters.
func (s *RegionServer) Stats() ServerStats {
	s.mu.RLock()
	regions := len(s.regions)
	s.mu.RUnlock()
	return ServerStats{
		ID:           s.id,
		Regions:      regions,
		Requests:     s.requests.Load(),
		Mutations:    s.mutations.Load(),
		RowsRead:     s.rowsRead.Load(),
		OpenScanners: s.OpenScannerCount(),
		Sheds:        s.sheds.Load(),
		ShedStreak:   s.shedStreak.Load(),
	}
}
