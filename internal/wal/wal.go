// Package wal implements a segmented write-ahead log.
//
// Every mutation of a region is appended to the log before it is applied to
// the memstore, so a crash between acknowledgement and flush loses nothing.
// The log is a sequence of fixed-capacity segment files; once the memstore
// contents covered by a segment have been flushed into SSTables the segment
// can be truncated away. The log has no segment cap: the live kit does not
// model the paper's hbase.regionserver.maxlogs = 128. Segments accumulate
// until the engine truncates them after a flush.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tpcxiot/internal/telemetry"
)

// Sentinel errors.
var (
	ErrClosed    = errors.New("wal: log is closed")
	ErrCorrupt   = errors.New("wal: corrupt record")
	ErrTooLarge  = errors.New("wal: record exceeds maximum size")
	ErrBadOption = errors.New("wal: invalid option")
)

// MaxRecordSize bounds a single record. TPCx-IoT pairs are 1 KiB; batched
// appends of a full client write buffer stay well under this.
const MaxRecordSize = 64 << 20

// RecordOverhead is the per-record framing cost (length + CRC32C header)
// the log adds on top of the record payload. Engines accounting their own
// WAL byte volume add this per record appended.
const RecordOverhead = headerLen

// SyncPolicy controls when appended records are forced to stable storage.
type SyncPolicy int

const (
	// SyncOnAppend fsyncs after every Append call (group committing all
	// records in the call). Durable and slow; the default.
	SyncOnAppend SyncPolicy = iota
	// SyncOnRotate fsyncs only when a segment fills or the log closes.
	// Models running the storage layer with deferred log sync.
	SyncOnRotate
	// SyncNever never fsyncs; for tests and benchmarks that measure the
	// engine above the disk.
	SyncNever
)

// Options configures a log.
type Options struct {
	// Dir is the directory holding segment files. Created if absent.
	Dir string
	// SegmentSize is the rotation threshold in bytes. Defaults to 64 MiB.
	SegmentSize int64
	// Sync selects the durability policy.
	Sync SyncPolicy
	// Registry, when non-nil, receives the log's telemetry: the counters
	// "wal.appends", "wal.bytes", "wal.syncs", "wal.group_commit_syncs" and
	// "wal.group_commit_shared" plus the "put.wal_append" stage histogram. A
	// nil registry costs one pointer test per append.
	Registry *telemetry.Registry
	// Logger, when non-nil, receives structured events from rare paths
	// (recovery warnings). The hot append path never logs.
	Logger *telemetry.Logger
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Dir == "" {
		return out, fmt.Errorf("%w: Dir is required", ErrBadOption)
	}
	if out.SegmentSize == 0 {
		out.SegmentSize = 64 << 20
	}
	if out.SegmentSize < 1024 {
		return out, fmt.Errorf("%w: SegmentSize %d too small", ErrBadOption, out.SegmentSize)
	}
	return out, nil
}

// Log is a segmented write-ahead log. Safe for concurrent use.
//
// Under SyncOnAppend, concurrent appenders GROUP COMMIT: one fsync covers
// every record written before it started, so N concurrent writers share
// syncs instead of paying one each — the amortisation behind the paper's
// super-linear low-concurrency scaling.
type Log struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	written  int64 // bytes in the active segment
	seq      uint64
	segments []uint64   // live segment sequence numbers, ascending; includes active
	retired  []*os.File // rotated-out segment files kept open until Close/Truncate
	closed   bool

	// Group-commit state: monotone byte counters across all segments.
	// appended is advanced under mu; synced is atomic (written by sync
	// leaders under syncMu and by rotation under mu). A writer whose
	// records are at offset <= synced is durable without syncing itself.
	appended int64
	synced   atomic.Int64
	syncMu   sync.Mutex // serialises sync leaders

	groupSyncs  int64 // fsyncs performed (telemetry)
	groupShared int64 // appends whose sync was covered by another writer

	// Registry-backed instruments, resolved once at Open; all nil-safe.
	appendsC     *telemetry.Counter
	bytesC       *telemetry.Counter
	syncsC       *telemetry.Counter
	groupSyncsC  *telemetry.Counter // wal.group_commit_syncs: leader fsyncs
	groupSharedC *telemetry.Counter // wal.group_commit_shared: fsyncs saved
	appendSpan   *telemetry.Timer
}

const (
	headerLen  = 8 // 4-byte length + 4-byte CRC32C
	filePrefix = "wal-"
	fileSuffix = ".log"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", filePrefix, seq, fileSuffix)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
		return 0, false
	}
	mid := name[len(filePrefix) : len(name)-len(fileSuffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	return seq, err == nil
}

// Open opens (creating if necessary) the log in opts.Dir. Existing segments
// are retained; new appends go to a fresh segment after the highest existing
// sequence number.
func Open(opts Options) (*Log, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	segs, err := listSegments(o.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		opts:         o,
		segments:     segs,
		appendsC:     o.Registry.Counter("wal.appends"),
		bytesC:       o.Registry.Counter("wal.bytes"),
		syncsC:       o.Registry.Counter("wal.syncs"),
		groupSyncsC:  o.Registry.Counter("wal.group_commit_syncs"),
		groupSharedC: o.Registry.Counter("wal.group_commit_shared"),
		appendSpan:   o.Registry.Timer("put.wal_append"),
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	return l, nil
}

func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

func (l *Log) openSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segmentName(seq)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 256<<10)
	l.written = 0
	l.seq = seq
	l.segments = append(l.segments, seq)
	return nil
}

// Append writes the records as one atomic group: either all records are
// durable after a successful return (under SyncOnAppend) or, after a crash,
// replay stops at the first incomplete record. Concurrent appenders under
// SyncOnAppend share fsyncs via group commit. When parent is live, the fsync
// performed by a group-commit leader appears as a "wal.fsync" child span (a
// follower whose durability another writer's fsync covered records none).
func (l *Log) Append(parent telemetry.TSpan, records ...[]byte) error {
	sp := l.appendSpan.Start()
	err := l.append(records, parent)
	sp.End()
	if err == nil && l.appendsC != nil {
		l.appendsC.Add(int64(len(records)))
		var total int64
		for _, rec := range records {
			total += int64(headerLen + len(rec))
		}
		l.bytesC.Add(total)
	}
	return err
}

// append is the uninstrumented body of Append.
func (l *Log) append(records [][]byte, trace telemetry.TSpan) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	for _, rec := range records {
		if len(rec) > MaxRecordSize {
			l.mu.Unlock()
			return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(rec))
		}
	}
	for _, rec := range records {
		var hdr [headerLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(rec, crcTable))
		if _, err := l.w.Write(hdr[:]); err != nil {
			l.mu.Unlock()
			return fmt.Errorf("wal: write header: %w", err)
		}
		if _, err := l.w.Write(rec); err != nil {
			l.mu.Unlock()
			return fmt.Errorf("wal: write record: %w", err)
		}
		l.written += int64(headerLen + len(rec))
		l.appended += int64(headerLen + len(rec))
	}
	myOffset := l.appended
	if l.written >= l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
		// Rotation flushed and (policy permitting) synced everything.
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	if l.opts.Sync == SyncOnAppend {
		return l.groupSync(myOffset, trace)
	}
	return nil
}

// groupSync makes everything up to myOffset durable, sharing fsyncs between
// concurrent appenders: whoever holds syncMu is the leader; followers that
// arrive later find their offset already covered and return without an
// fsync of their own.
func (l *Log) groupSync(myOffset int64, trace telemetry.TSpan) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= myOffset {
		l.groupShared++
		l.groupSharedC.Inc()
		return nil // a leader's fsync already covered these records
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: flush: %w", err)
	}
	target := l.appended
	f := l.f
	l.mu.Unlock()

	// fsync without holding mu, so new appends accumulate into the next
	// cohort while the disk works. The file handle cannot be closed
	// concurrently: rotation retires handles without closing them.
	fsyncSpan := trace.Child("wal.fsync")
	err := f.Sync()
	fsyncSpan.End()
	if err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.groupSyncs++
	l.groupSyncsC.Inc()
	l.syncsC.Inc()
	if target > l.synced.Load() {
		l.synced.Store(target)
	}
	return nil
}

// GroupCommitStats reports fsyncs performed and appends whose durability
// was covered by another writer's fsync.
func (l *Log) GroupCommitStats() (syncs, shared int64) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.groupSyncs, l.groupShared
}

func (l *Log) flushLocked(sync bool) error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		l.syncsC.Inc()
	}
	return nil
}

func (l *Log) rotateLocked() error {
	if err := l.flushLocked(l.opts.Sync != SyncNever); err != nil {
		return err
	}
	if l.opts.Sync == SyncOnAppend {
		// Everything appended so far is on disk; record it so waiting
		// group-commit followers return immediately. synced only grows, and
		// a concurrently stored smaller leader value merely causes one
		// redundant fsync later.
		if l.appended > l.synced.Load() {
			l.synced.Store(l.appended)
		}
	}
	// Retire rather than close: a group-commit leader may be fsyncing this
	// handle right now. Retired handles are closed on Truncate and Close.
	l.retired = append(l.retired, l.f)
	return l.openSegmentLocked(l.seq + 1)
}

// Sync forces buffered records to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.flushLocked(true)
}

// ActiveSegment returns the sequence number of the segment receiving
// appends. Records appended so far are covered by segments <= this value.
func (l *Log) ActiveSegment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// SegmentCount returns the number of live segment files.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Truncate removes all segments with sequence numbers strictly below upTo.
// The engine calls it after flushing memstore contents covered by those
// segments. The active segment is never removed.
func (l *Log) Truncate(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	keep := l.segments[:0]
	for _, seq := range l.segments {
		if seq >= upTo || seq == l.seq {
			keep = append(keep, seq)
			continue
		}
		if err := os.Remove(filepath.Join(l.opts.Dir, segmentName(seq))); err != nil {
			return fmt.Errorf("wal: remove segment %d: %w", seq, err)
		}
	}
	l.segments = keep
	// Retired handles belong to rotated-out segments; with the tail
	// truncated they can be closed (removing an open file is fine on
	// POSIX, and any in-flight group-commit fsync has completed by the
	// time the flush that preceded this call returned).
	for _, f := range l.retired {
		f.Close()
	}
	l.retired = nil
	return nil
}

// Close flushes, syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.flushLocked(l.opts.Sync != SyncNever); err != nil {
		l.f.Close()
		return err
	}
	for _, f := range l.retired {
		f.Close()
	}
	l.retired = nil
	return l.f.Close()
}

// Replay invokes fn for every intact record across all segments in append
// order. A torn or corrupt tail record ends replay without error (that is
// the crash-recovery contract); corruption in the middle of a segment
// returns ErrCorrupt.
func Replay(dir string, fn func(record []byte) error) error {
	return ReplayLog(dir, nil, fn)
}

// ReplayLog is Replay with a structured logger: tolerated torn-tail records
// — silently dropped by Replay — are reported as warn events so operators
// can tell a clean recovery from one that discarded an unacknowledged tail.
func ReplayLog(dir string, logger *telemetry.Logger, fn func(record []byte) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) || errors.Is(err, os.ErrNotExist) {
			return nil
		}
		// Directory may simply not exist yet: treat as empty log.
		if _, statErr := os.Stat(dir); os.IsNotExist(statErr) {
			return nil
		}
		return err
	}
	for i, seq := range segs {
		last := i == len(segs)-1
		if err := replaySegment(filepath.Join(dir, segmentName(seq)), last, logger, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, tolerateTornTail bool, logger *telemetry.Logger, fn func([]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: open for replay: %w", err)
	}
	defer f.Close()
	tornTail := func(reason string, recs int64) {
		logger.Warn("wal replay stopped at torn tail record",
			telemetry.F("segment", filepath.Base(path)),
			telemetry.F("reason", reason),
			telemetry.F("records_replayed", recs))
	}
	r := bufio.NewReaderSize(f, 256<<10)
	var replayed int64
	for {
		var hdr [headerLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			if err == io.ErrUnexpectedEOF && tolerateTornTail {
				tornTail("truncated header", replayed)
				return nil
			}
			return fmt.Errorf("%w: truncated header in %s", ErrCorrupt, filepath.Base(path))
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > MaxRecordSize {
			return fmt.Errorf("%w: record length %d in %s", ErrCorrupt, n, filepath.Base(path))
		}
		rec := make([]byte, n)
		if _, err := io.ReadFull(r, rec); err != nil {
			if (err == io.EOF || err == io.ErrUnexpectedEOF) && tolerateTornTail {
				tornTail("truncated record body", replayed)
				return nil
			}
			return fmt.Errorf("%w: truncated record in %s", ErrCorrupt, filepath.Base(path))
		}
		if crc32.Checksum(rec, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
			if tolerateTornTail {
				// A torn write can scramble the final record; stop replay.
				tornTail("checksum mismatch", replayed)
				return nil
			}
			return fmt.Errorf("%w: checksum mismatch in %s", ErrCorrupt, filepath.Base(path))
		}
		if err := fn(rec); err != nil {
			return err
		}
		replayed++
	}
}
