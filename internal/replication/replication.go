// Package replication implements the quorum-acknowledged replication
// pipeline that the TPCx-IoT prerequisite check verifies.
//
// In the paper's SUT, durability comes from HDFS: every WAL block and HFile
// is stored on three data nodes, and the benchmark driver's "data
// replication check" aborts the run if the factor is below three. This
// package models the same guarantee one level up: each region has a primary
// applier and replicaFactor-1 replica appliers on distinct nodes.
//
// Writes are acknowledged at quorum, not at full fan-out. Every batch is
// assigned a sequence number and enqueued — atomically, in one critical
// section — onto a bounded per-member catch-up queue. One long-lived worker
// per member drains its queue strictly in sequence order (the member's WAL
// order), so every member applies the same batches in the same order.
// ApplyBatch returns once quorum members — always including the
// primary — have durably applied the batch; members still behind (the
// stragglers) catch up asynchronously from their queues, off the caller's
// critical path.
//
// Watermarks make the divergence observable and safe:
//
//   - each member carries an applied high-water mark (the last sequence it
//     durably applied);
//   - the group carries a commit watermark (the highest sequence
//     acknowledged at quorum).
//
// Because the primary is required for quorum, primary.applied >= commit
// always holds — reads served by the primary see every acknowledged write.
// A replica may lag: CaughtUp/WaitCaughtUp gate reads-from-replica behind
// the applied-watermark check (wait until the member reaches the commit
// watermark, or redirect to the primary).
//
// The catch-up queue is bounded. When any member's queue is full the group
// refuses new batches with ErrCatchUpFull — a retryable overload signal the
// server layer converts into a load-shed response — so a stalled straggler
// costs bounded memory and visible backpressure instead of unbounded queue
// growth. A member whose apply fails stops draining (its queue and
// watermark freeze, preserving its WAL order); RestartMember re-attaches a
// recovered applier and replays the retained queue from the watermark.
package replication

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// DefaultFactor is the replication factor TPCx-IoT requires.
const DefaultFactor = 3

// DefaultMaxQueue bounds each member's catch-up queue (in batches) unless
// Options says otherwise.
const DefaultMaxQueue = 256

// Sentinel errors.
var (
	ErrFactorTooLow  = errors.New("replication: factor below requirement")
	ErrShortPipeline = errors.New("replication: fewer appliers than the factor requires")
	// ErrCatchUpFull is returned when a member's bounded catch-up queue is
	// full: the group refuses the batch rather than queueing unboundedly.
	// Retryable — the server layer surfaces it as a load-shed.
	ErrCatchUpFull = errors.New("replication: catch-up queue full")
	// ErrClosed is returned by writes against a closed group.
	ErrClosed = errors.New("replication: group closed")
	// ErrLagging is returned by WaitCaughtUp when the member does not reach
	// the commit watermark within the timeout.
	ErrLagging = errors.New("replication: member lagging behind commit watermark")
	// ErrMemberRunning is returned by RestartMember for a member whose
	// worker is still draining.
	ErrMemberRunning = errors.New("replication: member worker still running")
)

// Applier receives replicated batches: both the primary store and the
// replica stores satisfy it (region.Region, lsm.Store). ApplyBatch applies
// the whole batch in one engine round — one WAL group append, one memtable
// critical section — and carries the member's trace span, inert for
// unsampled operations, so each member's engine work shows up in the
// operation's span tree.
type Applier interface {
	ApplyBatch(parent telemetry.TSpan, writes []lsm.Write) error
}

// WatermarkObserver is satisfied by members that track their own applied
// high-water mark (region.Region). The worker notifies it after each
// durable apply, so the member's watermark is visible through /storage
// without reaching back into the group.
type WatermarkObserver interface {
	NoteApplied(seq uint64)
}

// Options configures a pipeline.
type Options struct {
	// Quorum is how many members (always including the primary) must
	// durably apply a batch before it is acknowledged. 0 selects the
	// majority, ⌈(n+1)/2⌉. Clamped to [1, members].
	Quorum int
	// MaxQueue bounds each member's catch-up queue in batches; a full
	// queue makes the group refuse writes with ErrCatchUpFull. <= 0
	// selects DefaultMaxQueue.
	MaxQueue int
}

// MajorityQuorum is ⌈(n+1)/2⌉ for n members: 1→1, 2→2, 3→2, 4→3, 5→3.
func MajorityQuorum(members int) int { return members/2 + 1 }

// groupMetrics holds the pipeline's instruments, all nil-safe.
type groupMetrics struct {
	acks       *telemetry.Counter // replication.acks: per-member durable write applies
	quorumAcks *telemetry.Counter // replication.quorum_acks: batches acknowledged at quorum
	catchup    *telemetry.Counter // replication.catchup_batches: member batch applies after the ack
	queueFull  *telemetry.Counter // replication.catchup_full: batches refused on a full queue
	quorumT    *telemetry.Timer   // replication.quorum_ack: batch submit → quorum
	fullT      *telemetry.Timer   // replication.full_ack: batch submit → all members
}

// Group is a quorum-acknowledged replication pipeline. See the package
// comment for the model. Safe for concurrent use.
type Group struct {
	members  []*member
	quorum   int
	maxQueue int
	wg       sync.WaitGroup

	mu      sync.Mutex // serializes sequence assignment + fan-out enqueue
	nextSeq uint64     // last assigned sequence number
	closed  bool

	commit atomic.Uint64 // highest sequence acknowledged at quorum

	met groupMetrics
}

// member is one pipeline member: an applier, its bounded catch-up queue,
// and the worker state draining it.
type member struct {
	idx int

	mu      sync.Mutex
	cond    *sync.Cond      // signals the worker: work queued or closing
	app     Applier         // swappable via RestartMember
	queue   []*pendingBatch // WAL order; head is in-flight or next to apply
	running bool            // worker goroutine alive
	closing bool
	err     error         // first apply error; non-nil ⇒ worker stopped
	advance chan struct{} // closed+replaced on watermark advance or stop

	applied atomic.Uint64 // high-water mark: last sequence durably applied
}

// bumpLocked wakes watermark watchers. Caller holds m.mu.
func (m *member) bumpLocked() {
	close(m.advance)
	m.advance = make(chan struct{})
}

// pendingBatch is one replicated batch in flight: the writes, the trace
// parent, and the shared acknowledgement state. The group retains the
// writes until the slowest member applied them — callers must not reuse
// the backing arrays after submitting a batch.
type pendingBatch struct {
	seq    uint64
	writes []lsm.Write
	parent telemetry.TSpan
	st     *ackState
}

// ackState tracks one batch's progress toward quorum. Each member reports
// exactly once (replays after RestartMember are suppressed); the batch
// resolves on the first of: primary failed, quorum reached (primary
// included), or quorum arithmetically unreachable.
type ackState struct {
	members int
	quorum  int

	mu       sync.Mutex
	reported []bool
	reports  int
	acked    int // successful member applies
	failures int
	primary  int8 // 0 pending, 1 ok, 2 failed
	errIdx   int
	err      error // lowest-indexed member error at resolution
	resolved bool
	failed   bool
	done     chan struct{}

	quorumSpan telemetry.Span // started at submit, ended at quorum
	fullSpan   telemetry.Span // started at submit, ended when all members applied
}

// reportSuccess records one member's durable apply. It returns whether the
// batch had already resolved (the apply was catch-up work, off the critical
// path). Duplicate reports (queue replay after restart) are ignored.
func (st *ackState) reportSuccess(idx int) (late bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.reported[idx] {
		return st.resolved
	}
	st.reported[idx] = true
	st.reports++
	st.acked++
	if idx == 0 {
		st.primary = 1
	}
	late = st.resolved
	st.resolveLocked()
	if st.reports == st.members && st.failures == 0 {
		st.fullSpan.End()
	}
	return late
}

// reportFailure records one member's apply failure (or its standing failure,
// for batches routed to a stopped member).
func (st *ackState) reportFailure(idx int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.reported[idx] {
		return
	}
	st.reported[idx] = true
	st.reports++
	st.failures++
	if idx == 0 {
		st.primary = 2
	}
	if st.err == nil || idx < st.errIdx {
		st.err, st.errIdx = err, idx
	}
	st.resolveLocked()
}

// resolveLocked applies the resolution rules. Caller holds st.mu.
func (st *ackState) resolveLocked() {
	if st.resolved {
		return
	}
	switch {
	case st.primary == 2:
		// The primary is required for quorum; its failure fails the batch.
		st.resolved, st.failed = true, true
	case st.primary == 1 && st.acked >= st.quorum:
		st.resolved = true
		st.quorumSpan.End()
	case st.failures > st.members-st.quorum:
		// Too many members failed for quorum to ever form.
		st.resolved, st.failed = true, true
	default:
		return
	}
	close(st.done)
}

// NewGroup builds a pipeline with default options (majority quorum,
// DefaultMaxQueue). The first member is the primary; the number of members
// is the replication factor. Member workers start immediately — Close the
// group to stop them and drain the catch-up queues.
func NewGroup(primary Applier, replicas ...Applier) *Group {
	return NewGroupOptions(Options{}, primary, replicas...)
}

// NewGroupOptions is NewGroup with explicit quorum and queue-bound options.
func NewGroupOptions(o Options, primary Applier, replicas ...Applier) *Group {
	n := 1 + len(replicas)
	if o.Quorum <= 0 {
		o.Quorum = MajorityQuorum(n)
	}
	if o.Quorum > n {
		o.Quorum = n
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = DefaultMaxQueue
	}
	g := &Group{quorum: o.Quorum, maxQueue: o.MaxQueue}
	apps := append([]Applier{primary}, replicas...)
	for i, app := range apps {
		m := &member{idx: i, app: app, running: true, advance: make(chan struct{})}
		m.cond = sync.NewCond(&m.mu)
		g.members = append(g.members, m)
	}
	g.wg.Add(len(g.members))
	for _, m := range g.members {
		go g.runMember(m)
	}
	return g
}

// runMember drains one member's catch-up queue in sequence order. The head
// batch stays queued while it applies, so a worker that dies (apply error)
// leaves the queue positioned exactly at the watermark for replay.
func (g *Group) runMember(m *member) {
	defer g.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closing {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.running = false
			m.bumpLocked()
			m.mu.Unlock()
			return
		}
		pb := m.queue[0]
		app := m.app
		m.mu.Unlock()

		var sp telemetry.TSpan
		if pb.parent.Traced() {
			sp = pb.parent.Child("replicate." + strconv.Itoa(m.idx))
		}
		err := app.ApplyBatch(sp, pb.writes)
		sp.End()

		if err != nil {
			m.mu.Lock()
			m.err = err
			m.running = false
			queued := append([]*pendingBatch(nil), m.queue...)
			m.bumpLocked()
			m.mu.Unlock()
			// Every retained batch fails for quorum purposes; the queue
			// itself is kept for replay after RestartMember.
			for _, qb := range queued {
				qb.st.reportFailure(m.idx, err)
			}
			return
		}

		m.applied.Store(pb.seq)
		if wo, ok := app.(WatermarkObserver); ok {
			wo.NoteApplied(pb.seq)
		}
		// Satellite fix: acks counts actual per-member acknowledgements at
		// the point the member durably applies — one per write per member —
		// instead of being bumped wholesale before/after the fan-out.
		g.met.acks.Add(int64(len(pb.writes)))
		m.mu.Lock()
		m.queue = m.queue[1:]
		m.bumpLocked()
		m.mu.Unlock()
		if late := pb.st.reportSuccess(m.idx); late {
			g.met.catchup.Inc()
		}
	}
}

// Factor returns the group's replication factor (pipeline length).
func (g *Group) Factor() int { return len(g.members) }

// Quorum returns how many members must apply before a write acks.
func (g *Group) Quorum() int { return g.quorum }

// Instrument resolves the group's counters and stage timers from the
// registry: replication.acks / quorum_acks / catchup_batches / catchup_full
// and the replication.quorum_ack / full_ack latency histograms. A nil
// registry leaves the group uninstrumented.
func (g *Group) Instrument(reg *telemetry.Registry) {
	g.met = groupMetrics{
		acks:       reg.Counter("replication.acks"),
		quorumAcks: reg.Counter("replication.quorum_acks"),
		catchup:    reg.Counter("replication.catchup_batches"),
		queueFull:  reg.Counter("replication.catchup_full"),
		quorumT:    reg.Timer("replication.quorum_ack"),
		fullT:      reg.Timer("replication.full_ack"),
	}
}

// ApplyBatch submits the batch to every member's catch-up queue and returns
// once quorum members — always including the primary — have durably applied
// it; stragglers finish in the background. The batch fails if the primary
// fails or quorum becomes unreachable (lowest-indexed member error wins);
// members that already applied keep the writes, the same partial state a
// crashed fan-out leaves. The group retains the batch until the slowest
// member applied it, so callers must not reuse the key/value arrays.
//
// When parent is live the pipeline appears as a "replication.fanout" span
// with a "replication.quorum_wait" child covering the blocking portion and
// one "replicate.N" child per member — a straggler's span completes after
// the fan-out span, which is exactly the point.
func (g *Group) ApplyBatch(parent telemetry.TSpan, writes []lsm.Write) error {
	if len(writes) == 0 {
		return nil
	}
	fanSp := parent.Child("replication.fanout")
	defer fanSp.End()

	st := &ackState{
		members:  len(g.members),
		quorum:   g.quorum,
		reported: make([]bool, len(g.members)),
		done:     make(chan struct{}),
	}
	pb := &pendingBatch{writes: writes, parent: fanSp, st: st}

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	// Admission: a full catch-up queue on any member refuses the batch
	// before a sequence is assigned, keeping memory bounded and the
	// overload visible.
	for _, m := range g.members {
		m.mu.Lock()
		full := len(m.queue) >= g.maxQueue
		m.mu.Unlock()
		if full {
			g.mu.Unlock()
			g.met.queueFull.Inc()
			return fmt.Errorf("replication: member %d: %w", m.idx, ErrCatchUpFull)
		}
	}
	g.nextSeq++
	pb.seq = g.nextSeq
	st.quorumSpan = g.met.quorumT.Start()
	st.fullSpan = g.met.fullT.Start()
	// Enqueue to every member inside the same critical section that
	// assigned the sequence, so every member's queue holds the same batches
	// in the same (WAL) order.
	for _, m := range g.members {
		m.mu.Lock()
		m.queue = append(m.queue, pb)
		var standing error
		if !m.running && !m.closing {
			standing = m.err
		}
		m.cond.Signal()
		m.mu.Unlock()
		if standing != nil {
			st.reportFailure(m.idx, standing)
		}
	}
	g.mu.Unlock()

	waitSp := fanSp.Child("replication.quorum_wait")
	<-st.done
	waitSp.End()

	st.mu.Lock()
	failed, err, errIdx := st.failed, st.err, st.errIdx
	st.mu.Unlock()
	if failed {
		return fmt.Errorf("replication: member %d: %w", errIdx, err)
	}
	g.met.quorumAcks.Inc()
	// Advance the commit watermark (monotonic max: concurrent batches may
	// resolve out of submit order).
	for {
		c := g.commit.Load()
		if pb.seq <= c || g.commit.CompareAndSwap(c, pb.seq) {
			break
		}
	}
	return nil
}

// CommitSeq returns the commit watermark: the highest sequence acknowledged
// at quorum.
func (g *Group) CommitSeq() uint64 { return g.commit.Load() }

// MemberApplied returns member i's applied high-water mark.
func (g *Group) MemberApplied(i int) uint64 { return g.members[i].applied.Load() }

// MemberErr returns the error that stopped member i's worker, if any.
func (g *Group) MemberErr(i int) error {
	m := g.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// QueueDepth returns member i's catch-up queue depth in batches.
func (g *Group) QueueDepth(i int) int {
	m := g.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// MaxQueueDepth returns the deepest member catch-up queue — the group's
// straggler depth.
func (g *Group) MaxQueueDepth() int {
	max := 0
	for i := range g.members {
		if d := g.QueueDepth(i); d > max {
			max = d
		}
	}
	return max
}

// QuorumLag returns how far the slowest member trails the commit watermark,
// in batches (sequence numbers).
func (g *Group) QuorumLag() uint64 {
	commit := g.commit.Load()
	var lag uint64
	for _, m := range g.members {
		if a := m.applied.Load(); a < commit && commit-a > lag {
			lag = commit - a
		}
	}
	return lag
}

// CaughtUp reports whether member i's applied watermark has reached the
// commit watermark — the gate for serving reads from that member. The
// primary is always caught up (it is required for quorum).
func (g *Group) CaughtUp(i int) bool {
	return g.members[i].applied.Load() >= g.commit.Load()
}

// WaitCaughtUp blocks until member i reaches the commit watermark observed
// at call time, the read-your-writes gate for reads-from-replica. A
// negative timeout waits indefinitely; on expiry it returns ErrLagging
// (wrapped), telling the caller to redirect to the primary. A stopped
// member returns its apply error immediately.
func (g *Group) WaitCaughtUp(i int, timeout time.Duration) error {
	m := g.members[i]
	target := g.commit.Load()
	var timeC <-chan time.Time
	if timeout >= 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeC = timer.C
	}
	for {
		if m.applied.Load() >= target {
			return nil
		}
		m.mu.Lock()
		if m.applied.Load() >= target {
			m.mu.Unlock()
			return nil
		}
		if m.err != nil {
			err := m.err
			m.mu.Unlock()
			return fmt.Errorf("replication: member %d: %w", i, err)
		}
		ch := m.advance
		m.mu.Unlock()
		select {
		case <-ch:
		case <-timeC:
			return fmt.Errorf("replication: member %d: %w", i, ErrLagging)
		}
	}
}

// Quiesce blocks until every member drained its catch-up queue (all
// stragglers converged), returning the first stopped member's error if one
// died on the way.
func (g *Group) Quiesce() error {
	var firstErr error
	for _, m := range g.members {
		for {
			m.mu.Lock()
			if m.err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("replication: member %d: %w", m.idx, m.err)
				}
				m.mu.Unlock()
				break
			}
			if len(m.queue) == 0 {
				m.mu.Unlock()
				break
			}
			ch := m.advance
			m.mu.Unlock()
			<-ch
		}
	}
	return firstErr
}

// RestartMember re-attaches a member whose worker stopped on an apply
// error: app (nil keeps the current applier) replaces the member's applier
// — typically a store reopened after a crash — and a new worker resumes
// draining the retained queue from the watermark, in the original WAL
// order. Batches the recovered store had already applied before the crash
// are re-applied idempotently (last-writer-wins on identical writes).
func (g *Group) RestartMember(i int, app Applier) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	m := g.members[i]
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return fmt.Errorf("replication: member %d: %w", i, ErrMemberRunning)
	}
	if app != nil {
		m.app = app
	}
	m.err = nil
	m.running = true
	m.mu.Unlock()
	g.wg.Add(1)
	go g.runMember(m)
	return nil
}

// Close stops the pipeline: new writes are refused, every live worker
// drains its remaining queue (stragglers converge), and the call returns
// the first stopped member's error, if any. Idempotent.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	for _, m := range g.members {
		m.mu.Lock()
		m.closing = true
		m.cond.Broadcast()
		m.mu.Unlock()
	}
	g.wg.Wait()
	var firstErr error
	for _, m := range g.members {
		m.mu.Lock()
		if m.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("replication: member %d: %w", m.idx, m.err)
		}
		m.mu.Unlock()
	}
	return firstErr
}

// GroupStats is a point-in-time snapshot of the pipeline's watermarks and
// queues, for the cluster's /storage and /healthz documents.
type GroupStats struct {
	Quorum   int      `json:"quorum"`
	Assigned uint64   `json:"assigned"` // last assigned sequence
	Commit   uint64   `json:"commit"`   // quorum watermark
	Applied  []uint64 `json:"applied"`  // per-member applied watermark
	Queue    []int    `json:"queue"`    // per-member catch-up depth
	Stopped  []bool   `json:"stopped"`  // per-member worker-dead flag
}

// MaxLag returns the snapshot's worst member lag behind the commit
// watermark.
func (s GroupStats) MaxLag() uint64 {
	var lag uint64
	for _, a := range s.Applied {
		if a < s.Commit && s.Commit-a > lag {
			lag = s.Commit - a
		}
	}
	return lag
}

// Stats snapshots the group.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	assigned := g.nextSeq
	g.mu.Unlock()
	st := GroupStats{
		Quorum:   g.quorum,
		Assigned: assigned,
		Commit:   g.commit.Load(),
	}
	for _, m := range g.members {
		m.mu.Lock()
		st.Applied = append(st.Applied, m.applied.Load())
		st.Queue = append(st.Queue, len(m.queue))
		st.Stopped = append(st.Stopped, m.err != nil)
		m.mu.Unlock()
	}
	return st
}

// Primary returns the first pipeline member's applier.
func (g *Group) Primary() Applier {
	m := g.members[0]
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.app
}

// Replicas returns the non-primary members' appliers.
func (g *Group) Replicas() []Applier {
	out := make([]Applier, 0, len(g.members)-1)
	for _, m := range g.members[1:] {
		m.mu.Lock()
		out = append(out, m.app)
		m.mu.Unlock()
	}
	return out
}

// CheckFactor returns nil when the group meets the required factor. This is
// the check the benchmark driver runs before the warmup (Figure 6's "data
// replication check").
func (g *Group) CheckFactor(required int) error {
	if g.Factor() < required {
		return fmt.Errorf("%w: have %d, require %d", ErrFactorTooLow, g.Factor(), required)
	}
	return nil
}

// Placement computes replica placement for region r of table with n nodes:
// the primary on node r mod n, replicas on the following nodes, wrapping —
// the chain placement HDFS-style pipelines use. It returns factor node
// indices, all distinct when n >= factor, or ErrShortPipeline otherwise.
func Placement(regionOrdinal, nodes, factor int) ([]int, error) {
	if nodes < factor {
		return nil, fmt.Errorf("%w: %d nodes for factor %d", ErrShortPipeline, nodes, factor)
	}
	out := make([]int, factor)
	for i := range out {
		out[i] = (regionOrdinal + i) % nodes
	}
	return out, nil
}
