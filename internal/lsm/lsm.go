// Package lsm implements the log-structured storage engine beneath a region
// server: an in-memory memtable in front of a write-ahead log and a set of
// immutable SSTables, with background flush and compaction.
//
// The moving parts correspond one-to-one with the HBase store the paper
// benchmarks:
//
//   - the memtable is the memstore; MemtableSize plays the role of the
//     flush threshold,
//   - MaxStoreFiles models hbase.hstore.blockingStoreFiles: when a store
//     accumulates that many files, writes block until compaction catches up.
//
// The WAL has no segment cap: the engine does not model the paper's
// hbase.regionserver.maxlogs = 128.
//
// Writes are durable (per the WAL sync policy) before they are visible.
// Reads merge the active memtable, the flushing memtable, and the store
// files newest-first. Deletes are tombstones that full compactions drop.
package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/memtable"
	"tpcxiot/internal/sstable"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// Sentinel errors.
var (
	ErrClosed   = errors.New("lsm: store is closed")
	ErrBadKey   = errors.New("lsm: empty key")
	ErrCorrupt  = errors.New("lsm: corrupt store")
	ErrBadRange = errors.New("lsm: scan bounds inverted")
)

// Options configures a store.
type Options struct {
	// Dir holds the WAL and table files. Required.
	Dir string
	// MemtableSize is the flush threshold in bytes. Defaults to 4 MiB.
	MemtableSize int64
	// MaxStoreFiles blocks writes when this many table files accumulate
	// (hbase.hstore.blockingStoreFiles). Defaults to 28, the paper's tuning.
	MaxStoreFiles int
	// CompactTrigger is how many similar-sized tables inside the hot time
	// window make a tier worth merging. Defaults to 6.
	CompactTrigger int
	// WindowDuration is the width of the time windows the compaction picker
	// partitions the table set into. Tables are windowed by their newest key
	// timestamp (kvp.TimestampOf; file creation time when keys carry none);
	// only the hot window churns, and cold windows are merged once and never
	// rewritten.
	// Defaults to 5 minutes — at the benchmark cadence of one reading per
	// sensor per second, that is a few memtable flushes per window.
	WindowDuration time.Duration
	// Compression selects the SSTable data-block encoding for tables written
	// by flushes and compactions (existing tables are readable either way).
	// Defaults to no compression.
	Compression sstable.Compression
	// BlockSize is the SSTable data-block size. Defaults to 4 KiB.
	BlockSize int
	// BloomBitsPerKey sizes table Bloom filters. 0 selects the default.
	BloomBitsPerKey int
	// BlockCacheBytes bounds the store's shared block cache (the HBase
	// block cache). 0 selects the sstable default.
	BlockCacheBytes int64
	// WALSync selects log durability. Defaults to wal.SyncOnAppend.
	WALSync wal.SyncPolicy
	// DisableAutoFlush turns off size-triggered flushes; Flush must be
	// called explicitly. Used by tests to control timing.
	DisableAutoFlush bool
	// Registry, when non-nil, receives engine telemetry: the counters
	// "lsm.flushes", "lsm.compactions", "lsm.stalls", "lsm.batch_applies"
	// and "wal.truncate_errors", the byte-accounting counters
	// "lsm.logical_bytes", "lsm.logical_read_bytes", "lsm.flush_bytes",
	// "lsm.compact_read_bytes" and "lsm.compact_write_bytes", the
	// Bloom-filter counters "lsm.bloom_hits", "lsm.bloom_skips" and
	// "lsm.bloom_false_positives", the gauges "lsm.memtable_bytes",
	// "lsm.table_bytes", "lsm.tables", "lsm.compaction_debt_bytes",
	// "lsm.cache_hits", "lsm.cache_misses" and "lsm.disk_read_bytes", and
	// the put-path stage histograms "put.memstore" and "put.region_flush".
	// The registry is also handed to the store's WAL. A nil registry keeps
	// the hot paths free of clock reads.
	Registry *telemetry.Registry
	// Tags, when non-empty, additionally registers the engine's counters
	// and gauge under tagged names (e.g. "lsm.batch_applies{region=...,
	// server=...}") so the shared registry can break activity down per
	// region and per server. Untagged roll-ups keep updating alongside.
	Tags []telemetry.Tag
	// Logger, when non-nil, receives structured events from cold paths:
	// recovery warnings (orphaned temp tables, torn WAL tails) and
	// background flush/compaction failures that would otherwise be
	// silently retried. Tags are attached to every event.
	Logger *telemetry.Logger
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("lsm: Dir is required")
	}
	if o.MemtableSize <= 0 {
		o.MemtableSize = 4 << 20
	}
	if o.MaxStoreFiles <= 0 {
		o.MaxStoreFiles = 28
	}
	if o.CompactTrigger <= 0 {
		o.CompactTrigger = 6
	}
	if o.CompactTrigger > o.MaxStoreFiles {
		o.CompactTrigger = o.MaxStoreFiles
	}
	if o.WindowDuration <= 0 {
		o.WindowDuration = 5 * time.Minute
	}
	return o, nil
}

// value encoding inside memtables and tables: first byte tags live values
// versus tombstones.
const (
	tagValue     = 1
	tagTombstone = 0
)

// tmpSuffix marks in-progress table files. Flush and compaction write to
// the temporary name and rename once the table is complete and synced, so
// a crash mid-write can never leave a partial .sst visible to recovery.
const tmpSuffix = ".tmp"

// Store is a single LSM tree. Safe for concurrent use.
type Store struct {
	opts Options
	log  *wal.Log

	mu     sync.RWMutex
	active *memtable.Memtable
	imm    *memtable.Memtable // being flushed; nil when none
	tables []*tableHandle     // newest first
	nextID uint64
	closed bool

	flushCond *sync.Cond          // signalled when a flush or compaction completes
	cache     *sstable.BlockCache // shared across all table files

	maintMu   sync.Mutex // serialises flushes
	compactMu sync.Mutex // serialises compactions, independently of flushes
	seedCount uint64

	// manifest is the versioned table-set log; manMu serialises manifest
	// commits with the in-memory installs they authorise, so a rotation
	// snapshot can never miss a committed-but-uninstalled table. Lock order:
	// manMu before mu.
	manifest *manifest
	manMu    sync.Mutex

	// Background compaction goroutine plumbing: flushes and stalls kick,
	// Close closes quit and waits.
	compactKick chan struct{}
	quit        chan struct{}
	bg          sync.WaitGroup
	stopOnce    sync.Once

	encPool sync.Pool // *encodeBuf; scratch space for batch record encoding

	puts, deletes, gets, scans   atomic.Int64
	flushes, compactions, stalls atomic.Int64
	batchApplies                 atomic.Int64

	// Byte-level resource accounting (the amplification ledger). All are
	// cumulative atomics updated on the paths that move the bytes: logical
	// bytes are user keys+values accepted into the store; WAL bytes are what
	// those writes cost in log framing; flush and compaction bytes are the
	// physical SSTable traffic; logical read bytes are user bytes returned
	// by gets and iterators. Query disk reads are the block cache's misses
	// plus seqReadBytes, the bytes sequential table iterators of queries
	// fetched (compaction's sequential reads count in compactReadBytes
	// only).
	logicalBytes      atomic.Int64
	walBytes          atomic.Int64
	flushBytes        atomic.Int64
	compactReadBytes  atomic.Int64
	compactWriteBytes atomic.Int64
	logicalReadBytes  atomic.Int64
	seqReadBytes      atomic.Int64

	// Bloom-filter effectiveness on the table read path: skips are definite
	// negatives (a table ruled out without a block read), hits are positive
	// probes where the key was found, false positives are positive probes
	// where it was not.
	bloomHits, bloomSkips, bloomFP atomic.Int64

	// stallWaiters counts writers currently blocked on MaxStoreFiles
	// backpressure; nonzero means the store is stalled right now.
	stallWaiters atomic.Int64

	// Block-compression ledger: raw data-block bytes offered to the
	// compressor versus bytes actually stored, summed over every table
	// written. Zero when Options.Compression is off.
	compressRaw, compressStored atomic.Int64

	// File-pruning ledger: table files skipped without any I/O because the
	// requested key range (pruneKey) or time range (pruneTime) cannot
	// intersect the table's footer bounds.
	pruneKey, pruneTime atomic.Int64

	met  storeMetrics
	elog *telemetry.Logger // structured event log; nil-safe
}

// storeMetrics holds the registry-backed instruments, resolved once at
// Open. Every field is nil-safe, so an uninstrumented store pays only
// pointer tests.
type storeMetrics struct {
	flushes      *telemetry.Counter
	compactions  *telemetry.Counter
	stalls       *telemetry.Counter
	truncErrs    *telemetry.Counter
	batchApplies *telemetry.Counter
	memSpan      *telemetry.Timer // put.memstore: WAL-ack to memtable-visible
	flushSpan    *telemetry.Timer // put.region_flush: memtable to table file

	// Byte-accounting and Bloom counters (see the atomics on Store).
	logicalBytesC   *telemetry.Counter
	logicalReadC    *telemetry.Counter
	flushBytesC     *telemetry.Counter
	compactReadC    *telemetry.Counter
	compactWriteC   *telemetry.Counter
	bloomHitsC      *telemetry.Counter
	bloomSkipsC     *telemetry.Counter
	bloomFPC        *telemetry.Counter
	compressRawC    *telemetry.Counter
	compressStoredC *telemetry.Counter
	pruneKeyC       *telemetry.Counter
	pruneTimeC      *telemetry.Counter

	// Per-region tagged variants, resolved only when Options.Tags is set
	// (nil — and thus free — otherwise). The untagged instruments above are
	// the cluster-wide roll-up; these carry the region/server breakdown.
	flushesTagged      *telemetry.Counter
	stallsTagged       *telemetry.Counter
	batchAppliesTagged *telemetry.Counter
	logicalBytesTagged *telemetry.Counter
	flushBytesTagged   *telemetry.Counter
	compactReadTagged  *telemetry.Counter
	compactWriteTagged *telemetry.Counter
}

// tableHandle pairs a reader with its file path. Handles are reference
// counted: the table set holds one reference and every in-flight read
// (get, scan, compaction merge) holds another, so a compaction retiring a
// table never closes its reader under a concurrent reader.
type tableHandle struct {
	id     uint64
	path   string
	reader *sstable.Reader
	refs   atomic.Int32
	doomed atomic.Bool // delete the file once the last reference drops

	// Introspection metadata, immutable after construction. size mirrors
	// reader.Size so stats never touch a possibly-closed reader; tombstones
	// is counted at write time (flush knows, full-compaction output has
	// none) and recorded in the manifest for tables recovered at open.
	size       int64
	tombstones int64
	created    time.Time

	// Pruning metadata mirrored from the reader's footer so Get and
	// iterator open never touch the reader for tables they will skip.
	// firstKey/lastKey are the inclusive key bounds; minTS/maxTS the key
	// timestamp bounds, meaningless when hasTS is false (keys without
	// timestamps — such tables are never pruned by time).
	firstKey, lastKey []byte
	minTS, maxTS      int64
	hasTS             bool
}

func newTableHandle(id uint64, path string, reader *sstable.Reader) *tableHandle {
	t := &tableHandle{
		id: id, path: path, reader: reader,
		size: reader.Size(), tombstones: -1, created: time.Now(),
	}
	t.firstKey, t.lastKey = reader.Bounds()
	t.minTS, t.maxTS, t.hasTS = reader.TimeBounds()
	t.refs.Store(1) // the table set's reference
	return t
}

func (t *tableHandle) acquire() { t.refs.Add(1) }

// release drops one reference, closing the reader (and removing a doomed
// file) when the last one goes.
func (t *tableHandle) release() {
	if t.refs.Add(-1) > 0 {
		return
	}
	t.reader.Close()
	if t.doomed.Load() {
		os.Remove(t.path)
	}
}

// Stats reports cumulative engine activity: operation counts, the
// byte-level amplification ledger, Bloom-filter and block-cache
// effectiveness, and the current shape of the table set. It is the one-stop
// snapshot — prefer it over the per-facet getters.
type Stats struct {
	Puts         int64 `json:"puts"`
	Deletes      int64 `json:"deletes"`
	Gets         int64 `json:"gets"`
	Scans        int64 `json:"scans"`
	Flushes      int64 `json:"flushes"`
	Compactions  int64 `json:"compactions"`
	StallEvents  int64 `json:"stall_events"`  // writes that blocked on MaxStoreFiles
	BatchApplies int64 `json:"batch_applies"` // apply rounds; (Puts+Deletes)/BatchApplies = mean batch size

	// Write-side amplification ledger. LogicalBytes is the user payload
	// accepted (keys + live values); WALBytes, FlushBytes and
	// CompactWriteBytes are the physical writes that payload cost; their sum
	// over LogicalBytes is the write amplification. CompactReadBytes is the
	// size of the tables compactions re-read and measures churn; it is the
	// only place compaction reads are charged.
	LogicalBytes      int64 `json:"logical_bytes"`
	WALBytes          int64 `json:"wal_bytes"`
	FlushBytes        int64 `json:"flush_bytes"`
	CompactReadBytes  int64 `json:"compact_read_bytes"`
	CompactWriteBytes int64 `json:"compact_write_bytes"`

	// Read-side ledger for queries: user bytes returned by gets and scans,
	// versus stored bytes their table reads pulled from disk (block-cache
	// misses plus the windows of sequential scan iterators). Compaction
	// input reads and the index and filter loads at table open are not
	// counted. Their ratio is the read amplification.
	LogicalReadBytes int64 `json:"logical_read_bytes"`
	DiskReadBytes    int64 `json:"disk_read_bytes"`

	// Bloom-filter effectiveness on table lookups: skips are definite
	// negatives, hits found the key, false positives probed and missed.
	BloomHits           int64 `json:"bloom_hits"`
	BloomSkips          int64 `json:"bloom_skips"`
	BloomFalsePositives int64 `json:"bloom_false_positives"`

	// Block-compression ledger: raw data-block bytes offered to the
	// compressor versus bytes actually stored. Zero with compression off;
	// their ratio is the achieved compression ratio.
	CompressRawBytes    int64 `json:"compress_raw_bytes"`
	CompressStoredBytes int64 `json:"compress_stored_bytes"`

	// File-pruning effectiveness: table files skipped with zero I/O because
	// the lookup's key (PruneKeySkips) or a time-range scan's bounds
	// (PruneTimeSkips) cannot intersect the table's footer bounds.
	PruneKeySkips  int64 `json:"prune_key_skips"`
	PruneTimeSkips int64 `json:"prune_time_skips"`

	// Block-cache effectiveness (shared across the store's tables) on the
	// cached query path; sequential reads bypass the cache and count in
	// neither hits nor misses.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheUsedBytes int64 `json:"cache_used_bytes"`

	// Current shape: live table files, their total size, the active
	// memtable's occupancy, and the compaction debt — bytes the windowed
	// picker would rewrite right now: cold windows not yet merged to one
	// table plus a hot window holding a mergeable tier. 0 when settled,
	// and no longer proportional to total data volume.
	Tables              int   `json:"tables"`
	TableBytes          int64 `json:"table_bytes"`
	MemtableBytes       int64 `json:"memtable_bytes"`
	CompactionDebtBytes int64 `json:"compaction_debt_bytes"`
}

// CompressionRatio is stored over raw data-block bytes (e.g. 0.4 means
// blocks shrank to 40%); 0 before any compressed write.
func (st Stats) CompressionRatio() float64 {
	if st.CompressRawBytes == 0 {
		return 0
	}
	return float64(st.CompressStoredBytes) / float64(st.CompressRawBytes)
}

// WriteAmplification is physical write bytes (WAL + flush + compaction
// rewrite) over logical bytes; 0 before any write.
func (st Stats) WriteAmplification() float64 {
	if st.LogicalBytes == 0 {
		return 0
	}
	return float64(st.WALBytes+st.FlushBytes+st.CompactWriteBytes) / float64(st.LogicalBytes)
}

// ReadAmplification is disk read bytes over logical read bytes; 0 before
// any read.
func (st Stats) ReadAmplification() float64 {
	if st.LogicalReadBytes == 0 {
		return 0
	}
	return float64(st.DiskReadBytes) / float64(st.LogicalReadBytes)
}

// BloomFalsePositiveRate is false positives over all positive probes plus
// skips — the fraction of filter consultations that cost a wasted table
// read; 0 before any filtered lookup.
func (st Stats) BloomFalsePositiveRate() float64 {
	total := st.BloomHits + st.BloomSkips + st.BloomFalsePositives
	if total == 0 {
		return 0
	}
	return float64(st.BloomFalsePositives) / float64(total)
}

// CacheHitRate is block-cache hits over lookups; 0 before any lookup.
func (st Stats) CacheHitRate() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}

// Open opens (creating or recovering) the store in opts.Dir.
func Open(opts Options) (*Store, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: create dir: %w", err)
	}

	s := &Store{opts: o, active: memtable.New(1)}
	s.cache = sstable.NewBlockCache(o.BlockCacheBytes)
	s.flushCond = sync.NewCond(&s.mu)
	s.seedCount = 1
	s.encPool.New = func() any { return new(encodeBuf) }
	s.met = storeMetrics{
		flushes:         o.Registry.Counter("lsm.flushes"),
		compactions:     o.Registry.Counter("lsm.compactions"),
		stalls:          o.Registry.Counter("lsm.stalls"),
		truncErrs:       o.Registry.Counter("wal.truncate_errors"),
		batchApplies:    o.Registry.Counter("lsm.batch_applies"),
		memSpan:         o.Registry.Timer("put.memstore"),
		flushSpan:       o.Registry.Timer("put.region_flush"),
		logicalBytesC:   o.Registry.Counter("lsm.logical_bytes"),
		logicalReadC:    o.Registry.Counter("lsm.logical_read_bytes"),
		flushBytesC:     o.Registry.Counter("lsm.flush_bytes"),
		compactReadC:    o.Registry.Counter("lsm.compact_read_bytes"),
		compactWriteC:   o.Registry.Counter("lsm.compact_write_bytes"),
		bloomHitsC:      o.Registry.Counter("lsm.bloom_hits"),
		bloomSkipsC:     o.Registry.Counter("lsm.bloom_skips"),
		bloomFPC:        o.Registry.Counter("lsm.bloom_false_positives"),
		compressRawC:    o.Registry.Counter("lsm.compress_raw_bytes"),
		compressStoredC: o.Registry.Counter("lsm.compress_stored_bytes"),
		pruneKeyC:       o.Registry.Counter("lsm.prune_key_skips"),
		pruneTimeC:      o.Registry.Counter("lsm.prune_time_skips"),
	}
	o.Registry.Gauge("lsm.memtable_bytes", s.memtableBytesGauge)
	o.Registry.Gauge("lsm.table_bytes", s.tableBytesGauge)
	o.Registry.Gauge("lsm.tables", s.tablesGauge)
	o.Registry.Gauge("lsm.compaction_debt_bytes", s.compactionDebtGauge)
	o.Registry.Gauge("lsm.windows", func() int64 { return int64(len(s.TierStats())) })
	o.Registry.Gauge("lsm.hot_window_tables", s.hotWindowTablesGauge)
	o.Registry.Gauge("lsm.cache_hits", func() int64 { return s.cache.Stats().Hits })
	o.Registry.Gauge("lsm.cache_misses", func() int64 { return s.cache.Stats().Misses })
	o.Registry.Gauge("lsm.disk_read_bytes", s.diskReadBytes)
	RegisterDerivedGauges(o.Registry)
	if len(o.Tags) > 0 {
		s.met.flushesTagged = o.Registry.CounterTagged("lsm.flushes", o.Tags...)
		s.met.stallsTagged = o.Registry.CounterTagged("lsm.stalls", o.Tags...)
		s.met.batchAppliesTagged = o.Registry.CounterTagged("lsm.batch_applies", o.Tags...)
		s.met.logicalBytesTagged = o.Registry.CounterTagged("lsm.logical_bytes", o.Tags...)
		s.met.flushBytesTagged = o.Registry.CounterTagged("lsm.flush_bytes", o.Tags...)
		s.met.compactReadTagged = o.Registry.CounterTagged("lsm.compact_read_bytes", o.Tags...)
		s.met.compactWriteTagged = o.Registry.CounterTagged("lsm.compact_write_bytes", o.Tags...)
		o.Registry.GaugeTagged("lsm.memtable_bytes", s.memtableBytesGauge, o.Tags...)
		o.Registry.GaugeTagged("lsm.table_bytes", s.tableBytesGauge, o.Tags...)
	}
	s.elog = o.Logger
	if s.elog != nil && len(o.Tags) > 0 {
		fields := make([]telemetry.Field, len(o.Tags))
		for i, t := range o.Tags {
			fields[i] = telemetry.F(t.Key, t.Value)
		}
		s.elog = s.elog.With(fields...)
	}

	if err := s.recoverTables(); err != nil {
		return nil, err
	}

	// Recover unflushed writes from the log, then open it for appending.
	if err := wal.ReplayLog(filepath.Join(o.Dir, "wal"), s.elog, func(rec []byte) error {
		return s.applyRecord(rec)
	}); err != nil {
		return nil, fmt.Errorf("lsm: wal recovery: %w", err)
	}
	s.log, err = wal.Open(wal.Options{
		Dir:      filepath.Join(o.Dir, "wal"),
		Sync:     o.WALSync,
		Registry: o.Registry,
		Logger:   s.elog,
	})
	if err != nil {
		return nil, err
	}

	s.compactKick = make(chan struct{}, 1)
	s.quit = make(chan struct{})
	s.bg.Add(1)
	go s.compactLoop()
	// Recovery may have left compactable debt (e.g. a crash mid-merge).
	s.kickCompactor()
	return s, nil
}

// tablePath names table id's file within the store directory.
func (s *Store) tablePath(id uint64) string {
	return filepath.Join(s.opts.Dir, fmt.Sprintf("%012d.sst", id))
}

// recoverTables rebuilds the table set at open. The manifest is
// authoritative: exactly the tables it lists are opened and every other .sst
// (plus .tmp residue and superseded MANIFEST files) is an orphan from an
// interrupted transition, removed. A fresh directory bootstraps an empty
// manifest; a directory holding tables but no manifest was not written by
// this store and is refused with ErrCorrupt, untouched.
func (s *Store) recoverTables() error {
	man, live, err := openManifest(s.opts.Dir, s.elog)
	if err != nil {
		return err
	}
	s.manifest = man

	if live == nil {
		tables, err := filepath.Glob(filepath.Join(s.opts.Dir, "*.sst"))
		if err != nil {
			return fmt.Errorf("lsm: read dir: %w", err)
		}
		if len(tables) > 0 {
			return fmt.Errorf("%w: %d tables but no %s in %s", ErrCorrupt, len(tables), currentName, s.opts.Dir)
		}
		if err := man.bootstrap(); err != nil {
			return err
		}
	}
	metas := make([]tableMeta, 0, len(live))
	for _, m := range live {
		metas = append(metas, m)
	}
	// Higher ids are newer; order newest first.
	sort.Slice(metas, func(i, j int) bool { return metas[i].ID > metas[j].ID })
	for _, m := range metas {
		path := s.tablePath(m.ID)
		r, err := sstable.OpenWithCache(path, s.cache)
		if err != nil {
			return fmt.Errorf("%w: manifest table %s: %v", ErrCorrupt, path, err)
		}
		h := newTableHandle(m.ID, path, r)
		h.tombstones = m.Tombstones
		h.created = time.UnixMilli(m.CreatedMS)
		s.tables = append(s.tables, h)
		if m.ID >= s.nextID {
			s.nextID = m.ID + 1
		}
	}
	return s.removeOrphans()
}

// removeOrphans sweeps the directory after recovery: .tmp files from
// interrupted writes, superseded MANIFEST files, and .sst files the
// manifest does not reference (committed-but-unlinked compaction inputs, or a flush that
// renamed its table but crashed before the manifest commit; the WAL still
// holds the latter's contents). Any orphan id seen advances nextID so a new
// table can never reuse a name that just held different bytes.
func (s *Store) removeOrphans() error {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("lsm: read dir: %w", err)
	}
	liveTables := make(map[string]bool, len(s.tables))
	for _, t := range s.tables {
		liveTables[filepath.Base(t.path)] = true
	}
	curManifest := manifestName(s.manifest.seq)
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			s.elog.Warn("removing orphaned temp file from interrupted write",
				telemetry.F("file", name))
		case strings.HasPrefix(name, manifestPrefix) && name != curManifest:
			s.elog.Warn("removing superseded manifest",
				telemetry.F("file", name))
		case strings.HasSuffix(name, ".sst") && !liveTables[name]:
			s.elog.Warn("removing orphaned table not referenced by manifest",
				telemetry.F("file", name))
			if id, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64); err == nil && id >= s.nextID {
				s.nextID = id + 1
			}
		default:
			continue
		}
		os.Remove(filepath.Join(s.opts.Dir, name))
	}
	return nil
}

// Record encoding: op byte, uvarint key length, key, value. Encoding lives
// in encodeBuf.encode; applyRecord below is the decoder used by replay.
//
// encodeBuf is per-batch scratch space, pooled on the store so steady-state
// ingest encodes WAL records and memtable values without fresh allocations.
type encodeBuf struct {
	arena []byte   // backing storage for every record in the batch
	recs  [][]byte // slices into arena, one per write
	val   []byte   // tagged-value scratch for memtable inserts
}

// encode lays the batch's WAL records out in the arena and returns one slice
// per record. The arena is sized up front so it never reallocates mid-batch
// (which would invalidate earlier record slices).
func (b *encodeBuf) encode(writes []Write) [][]byte {
	need := 0
	for i := range writes {
		need += 1 + binary.MaxVarintLen32 + len(writes[i].Key) + len(writes[i].Value)
	}
	if cap(b.arena) < need {
		b.arena = make([]byte, 0, need)
	}
	b.arena = b.arena[:0]
	b.recs = b.recs[:0]
	for i := range writes {
		w := &writes[i]
		start := len(b.arena)
		if w.Delete {
			b.arena = append(b.arena, tagTombstone)
			b.arena = binary.AppendUvarint(b.arena, uint64(len(w.Key)))
			b.arena = append(b.arena, w.Key...)
		} else {
			b.arena = append(b.arena, tagValue)
			b.arena = binary.AppendUvarint(b.arena, uint64(len(w.Key)))
			b.arena = append(b.arena, w.Key...)
			b.arena = append(b.arena, w.Value...)
		}
		b.recs = append(b.recs, b.arena[start:len(b.arena)])
	}
	return b.recs
}

func (s *Store) applyRecord(rec []byte) error {
	if len(rec) < 2 {
		return fmt.Errorf("%w: wal record of %d bytes", ErrCorrupt, len(rec))
	}
	op := rec[0]
	klen, n := binary.Uvarint(rec[1:])
	if n <= 0 || uint64(len(rec)-1-n) < klen {
		return fmt.Errorf("%w: wal record key length", ErrCorrupt)
	}
	key := rec[1+n : 1+n+int(klen)]
	value := rec[1+n+int(klen):]
	switch op {
	case tagValue:
		s.active.Put(key, append([]byte{tagValue}, value...))
	case tagTombstone:
		s.active.Put(key, []byte{tagTombstone})
	default:
		return fmt.Errorf("%w: wal op %d", ErrCorrupt, op)
	}
	return nil
}

// Write is one mutation in a batch: a put of Value under Key, or a
// tombstone for Key when Delete is set (Value is then ignored).
type Write struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// Put stores value under key, durably per the WAL policy.
func (s *Store) Put(key, value []byte) error {
	return s.ApplyBatch(telemetry.TSpan{}, []Write{{Key: key, Value: value}})
}

// Delete removes key by writing a tombstone.
func (s *Store) Delete(key []byte) error {
	return s.ApplyBatch(telemetry.TSpan{}, []Write{{Key: key, Delete: true}})
}

// tombstoneValue is the stored form of a delete; memtable.Put copies it.
var tombstoneValue = []byte{tagTombstone}

// ApplyBatch applies the writes as one engine round: a single WAL append
// covering every record (one fsync group under SyncOnAppend), then a single
// memtable critical section with one flush/backpressure check for the whole
// batch. Crash recovery replays the batch record-by-record, so a batch is
// equivalent to — just much cheaper than — the same writes applied one at a
// time. An empty batch is a no-op.
//
// When parent is live the engine round appears as an "lsm.apply_batch" span
// with children for each stage that actually ran: "lsm.stall_wait"
// (backpressure blocking, only when the store stalled), "wal.append" (with
// the group-commit "wal.fsync" beneath it, recorded by the WAL), and
// "lsm.memtable_insert". An inert parent costs no clock reads and no
// allocations.
func (s *Store) ApplyBatch(parent telemetry.TSpan, writes []Write) error {
	if len(writes) == 0 {
		return nil
	}
	// Validation doubles as the logical-byte count: the user payload this
	// batch asks the store to persist, before any log framing or table
	// encoding. Tombstones carry only their key.
	var logical int64
	for i := range writes {
		if len(writes[i].Key) == 0 {
			return ErrBadKey
		}
		logical += int64(len(writes[i].Key))
		if !writes[i].Delete {
			logical += int64(len(writes[i].Value))
		}
	}
	batchSp := parent.Child("lsm.apply_batch")
	defer batchSp.End()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// Backpressure: block while the store-file count is at the cap, exactly
	// like hbase.hstore.blockingStoreFiles. Checked once per batch.
	if len(s.tables) >= s.opts.MaxStoreFiles && !s.closed {
		stallSp := batchSp.Child("lsm.stall_wait")
		s.stallWaiters.Add(1)
		for len(s.tables) >= s.opts.MaxStoreFiles && !s.closed {
			s.stalls.Add(1)
			s.met.stalls.Inc()
			s.met.stallsTagged.Inc()
			s.startMaintenanceLocked()
			// With stallWaiters nonzero the picker always finds work, so a
			// kick is guaranteed to shrink the table count.
			s.kickCompactor()
			s.flushCond.Wait()
		}
		s.stallWaiters.Add(-1)
		stallSp.End()
	}
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	log := s.log
	s.mu.Unlock()

	// WAL first. Records are encoded once into pooled scratch space and the
	// whole batch goes down in one group append.
	eb := s.encPool.Get().(*encodeBuf)
	defer s.encPool.Put(eb)
	recs := eb.encode(writes)
	var walCost int64
	for _, rec := range recs {
		walCost += int64(len(rec)) + wal.RecordOverhead
	}
	walSp := batchSp.Child("wal.append")
	err := log.Append(walSp, recs...)
	walSp.End()
	if err != nil {
		return fmt.Errorf("lsm: wal append: %w", err)
	}

	memSp := s.met.memSpan.Start()
	insertSp := batchSp.Child("lsm.memtable_insert")
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	var puts, deletes int64
	for i := range writes {
		w := &writes[i]
		if w.Delete {
			s.active.Put(w.Key, tombstoneValue)
			deletes++
		} else {
			// Build the tagged value in scratch; the memtable copies it.
			eb.val = append(eb.val[:0], tagValue)
			eb.val = append(eb.val, w.Value...)
			s.active.Put(w.Key, eb.val)
			puts++
		}
	}
	s.puts.Add(puts)
	s.deletes.Add(deletes)
	insertSp.End()
	memSp.End()
	s.batchApplies.Add(1)
	s.met.batchApplies.Inc()
	s.met.batchAppliesTagged.Inc()
	s.logicalBytes.Add(logical)
	s.walBytes.Add(walCost)
	s.met.logicalBytesC.Add(logical)
	s.met.logicalBytesTagged.Add(logical)
	shouldFlush := !s.opts.DisableAutoFlush &&
		s.active.Size() >= s.opts.MemtableSize && s.imm == nil
	if shouldFlush {
		s.rotateMemtableLocked()
		s.startMaintenanceLocked()
	}
	s.mu.Unlock()
	return nil
}

// rotateMemtableLocked moves the active memtable to the immutable slot.
// Caller holds mu and has checked imm == nil.
func (s *Store) rotateMemtableLocked() {
	s.imm = s.active
	s.seedCount++
	s.active = memtable.New(s.seedCount)
}

// startMaintenanceLocked launches the background flush worker if there is
// work. Caller holds mu. Compaction is not maintenance any more — it runs on
// its own goroutine (compactLoop), kicked by each flush install.
func (s *Store) startMaintenanceLocked() {
	go s.maintain()
}

// maintain performs at most one flush pass.
func (s *Store) maintain() {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()

	s.mu.Lock()
	imm := s.imm
	s.mu.Unlock()
	if imm != nil {
		if err := s.flushMemtable(imm); err != nil {
			// Leave imm in place; a later Flush call will retry and report.
			s.elog.Error("background memtable flush failed; will retry",
				telemetry.F("error", err))
		}
	}
}

// Flush synchronously persists all memtable contents to table files.
func (s *Store) Flush() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.imm == nil {
		if s.active.Len() == 0 {
			s.mu.Unlock()
			return nil
		}
		s.rotateMemtableLocked()
	}
	imm := s.imm
	s.mu.Unlock()

	return s.flushMemtable(imm)
}

// flushMemtable writes imm to a new table file and installs it.
func (s *Store) flushMemtable(imm *memtable.Memtable) error {
	sp := s.met.flushSpan.Start()
	defer sp.End()
	it := imm.NewIterator()
	it.SeekToFirst()
	h, err := s.writeTable(it, false)
	if err != nil {
		return err
	}
	if h == nil {
		// Nothing to persist; just clear the immutable slot.
		s.mu.Lock()
		s.imm = nil
		s.flushCond.Broadcast()
		s.mu.Unlock()
		return nil
	}

	// The manifest commit is the transition: if it fails (or we crash before
	// it) the renamed file is an unreferenced orphan, the WAL still holds the
	// data, and a retry flushes under a fresh id.
	err = s.commitAndInstall(manifestEdit{Added: []tableMeta{h.meta()}}, func() {
		s.tables = append([]*tableHandle{h}, s.tables...)
		s.imm = nil
		s.flushes.Add(1)
		s.met.flushes.Inc()
		s.met.flushesTagged.Inc()
		s.flushBytes.Add(h.size)
		s.met.flushBytesC.Add(h.size)
		s.met.flushBytesTagged.Add(h.size)
		s.flushCond.Broadcast()
	})
	if err != nil {
		h.release()
		return fmt.Errorf("lsm: manifest commit after flush: %w", err)
	}
	s.kickCompactor()

	if err := s.truncateWALIfQuiescent(); err != nil {
		// The flush itself succeeded — the table is installed — but leaked
		// WAL segments grow the log and its replay, so the caller must know.
		return fmt.Errorf("lsm: wal truncate after flush: %w", err)
	}
	return nil
}

// commitAndInstall logs one manifest edit and, only if the commit succeeds,
// runs install (which must take s.mu itself and update s.tables to match the
// edit). Holding manMu across both means a concurrent edit's rotation
// snapshot always reflects every previously committed transition.
func (s *Store) commitAndInstall(edit manifestEdit, install func()) error {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	s.mu.RLock()
	live := make([]tableMeta, 0, len(s.tables))
	for _, t := range s.tables {
		live = append(live, t.meta())
	}
	s.mu.RUnlock()
	if err := s.manifest.logEdit(edit, live); err != nil {
		return err
	}
	s.mu.Lock()
	install()
	s.mu.Unlock()
	return nil
}

// writeTable writes src's entries, in key order, to a new table file and
// opens it: the sstable writer fills and fsyncs a temporary file, which is
// renamed into place. dropTombstones leaves tombstones out (a merge with
// nothing older beneath it). It returns a nil handle, and leaves no file,
// when nothing was written. The caller commits the table to the manifest.
func (s *Store) writeTable(src iterator, dropTombstones bool) (*tableHandle, error) {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.mu.Unlock()

	path := s.tablePath(id)
	w, err := sstable.NewWriter(path+tmpSuffix, sstable.WriterOptions{
		BlockSize:       s.opts.BlockSize,
		BloomBitsPerKey: s.opts.BloomBitsPerKey,
		Compression:     s.opts.Compression,
		TimestampOf:     kvp.TimestampOf,
	})
	if err != nil {
		return nil, err
	}
	var tombs int64
	for ; src.Valid(); src.Next() {
		v := src.Value()
		if len(v) == 0 || v[0] != tagValue {
			if dropTombstones {
				continue
			}
			tombs++
		}
		if err := w.Add(src.Key(), v); err != nil {
			w.Abort()
			return nil, err
		}
	}
	if e, ok := src.(errIterator); ok && e.Error() != nil {
		w.Abort()
		return nil, e.Error()
	}
	if w.EntryCount() == 0 {
		w.Abort()
		return nil, nil
	}
	if err := w.Finish(); err != nil {
		return nil, err
	}
	if err := os.Rename(path+tmpSuffix, path); err != nil {
		return nil, fmt.Errorf("lsm: install table: %w", err)
	}
	r, err := sstable.OpenWithCache(path, s.cache)
	if err != nil {
		return nil, err
	}
	h := newTableHandle(id, path, r)
	h.tombstones = tombs
	raw, stored := w.CompressionStats()
	s.compressRaw.Add(raw)
	s.compressStored.Add(stored)
	s.met.compressRawC.Add(raw)
	s.met.compressStoredC.Add(stored)
	return h, nil
}

// truncateWALIfQuiescent drops all but the active WAL segment when there is
// no unflushed data at all (active memtable empty and no immutable table).
// This conservative rule is always safe: if any unflushed record existed it
// would be lost by truncation, so we only truncate when none exists.
func (s *Store) truncateWALIfQuiescent() error {
	s.mu.Lock()
	quiescent := s.imm == nil && s.active.Len() == 0 && !s.closed
	var log *wal.Log
	var upTo uint64
	if quiescent {
		log = s.log
		upTo = s.log.ActiveSegment()
	}
	s.mu.Unlock()
	if log == nil {
		return nil
	}
	if err := log.Truncate(upTo); err != nil {
		s.met.truncErrs.Inc()
		return err
	}
	return nil
}

// compactOnce asks the picker for one unit of work and runs it. It returns
// whether a compaction happened. Serialised by compactMu; flushes proceed
// concurrently under maintMu and are re-merged at install time.
func (s *Store) compactOnce() (bool, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return false, nil
	}
	pick := s.pickCompactionLocked()
	if pick != nil {
		for _, t := range pick.inputs {
			t.acquire() // hold for the merge read
		}
	}
	s.mu.RUnlock()
	if pick == nil {
		return false, nil
	}
	return true, s.compactPick(pick)
}

// compactPick merges one picked span of tables into a single output and
// swaps it into the span's position. Caller holds compactMu and has
// acquired every input; compactPick releases them. Tombstones survive the
// merge unless the pick says nothing older exists.
func (s *Store) compactPick(pick *compactionPick) error {
	old := pick.inputs
	defer func() {
		for _, t := range old {
			t.release()
		}
	}()

	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}

	// Inputs are a contiguous span of the newest-first table list, in order,
	// so the merge's "earlier source wins" rule preserves shadowing. Each is
	// read end to end through a sequential iterator, past the block cache.
	iters := make([]iterator, len(old))
	for i, t := range old {
		it := t.reader.NewSeqIterator()
		it.SeekToFirst()
		iters[i] = it
	}
	out, err := s.writeTable(newMergeIterator(iters), pick.dropTombstones)
	if err != nil {
		return err
	}
	// The merge read every input in full; account those bytes whether or not
	// anything survives (an all-tombstone merge still did the I/O). This is
	// the only ledger entry for compaction reads.
	var readBytes int64
	edit := manifestEdit{Deleted: make([]uint64, 0, len(old))}
	for _, t := range old {
		readBytes += t.size
		edit.Deleted = append(edit.Deleted, t.id)
	}
	s.compactReadBytes.Add(readBytes)
	s.met.compactReadC.Add(readBytes)
	s.met.compactReadTagged.Add(readBytes)
	var writeBytes int64
	if out != nil {
		writeBytes = out.size
		edit.Added = []tableMeta{out.meta()}
	}
	s.compactWriteBytes.Add(writeBytes)
	s.met.compactWriteC.Add(writeBytes)
	s.met.compactWriteTagged.Add(writeBytes)

	// Manifest commit, then the in-memory swap it authorises. A crash before
	// the commit leaves the output an orphan; after it, the inputs are the
	// orphans — either way the next open converges.
	err = s.commitAndInstall(edit, func() {
		s.replaceTablesLocked(old, out)
		s.compactions.Add(1)
		s.met.compactions.Inc()
		s.flushCond.Broadcast()
	})
	if err != nil {
		if out != nil {
			out.release()
		}
		return fmt.Errorf("lsm: manifest commit after compaction: %w", err)
	}

	// Retire the inputs: drop the table set's reference. The reader closes
	// and the file is removed once the last concurrent scan releases it.
	for _, t := range old {
		t.doomed.Store(true)
		t.release()
	}
	return nil
}

// replaceTablesLocked swaps the tables of a compacted span (matched by
// identity — flushes may have prepended newer tables since the pick) for the
// merged output, which takes the span's position. A nil out (everything
// merged away) just removes the span. Caller holds mu.
func (s *Store) replaceTablesLocked(old []*tableHandle, out *tableHandle) {
	oldSet := make(map[*tableHandle]bool, len(old))
	for _, t := range old {
		oldSet[t] = true
	}
	ns := make([]*tableHandle, 0, len(s.tables))
	inserted := false
	for _, t := range s.tables {
		if oldSet[t] {
			if !inserted && out != nil {
				ns = append(ns, out)
			}
			inserted = true
			continue
		}
		ns = append(ns, t)
	}
	s.tables = ns
}

// Compact forces a full compaction: every table merges into one and every
// tombstone is dropped. The heavy hammer — benchmarks settling to a known
// state use CompactPending, which respects window boundaries.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.RLock()
	if s.closed || len(s.tables) < 2 {
		s.mu.RUnlock()
		return nil
	}
	pick := s.pickSpanLocked(0, len(s.tables), "full")
	for _, t := range pick.inputs {
		t.acquire()
	}
	s.mu.RUnlock()
	return s.compactPick(pick)
}

// Get returns the value for key, or ok=false.
func (s *Store) Get(key []byte) (value []byte, ok bool, err error) {
	if len(key) == 0 {
		return nil, false, ErrBadKey
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, false, ErrClosed
	}
	active, imm := s.active, s.imm
	tables := append([]*tableHandle(nil), s.tables...)
	for _, t := range tables {
		t.acquire()
	}
	s.mu.RUnlock()
	defer func() {
		for _, t := range tables {
			t.release()
		}
	}()
	s.gets.Add(1)

	if v, found := active.Get(key); found {
		return s.returnLive(key, v)
	}
	if imm != nil {
		if v, found := imm.Get(key); found {
			return s.returnLive(key, v)
		}
	}
	for _, t := range tables {
		// Key-range pruning: the footer bounds rule the table out without
		// touching its reader (no bloom probe, no block read).
		if bytes.Compare(key, t.firstKey) < 0 || bytes.Compare(key, t.lastKey) > 0 {
			s.pruneKey.Add(1)
			s.met.pruneKeyC.Inc()
			continue
		}
		r := t.reader
		// Classify the Bloom probe ourselves (Reader.Get would consult the
		// filter too, but cannot tell us which way it went). Only tables that
		// actually carry a filter can score a hit, skip or false positive.
		filtered := r.FilterPresent()
		if filtered && !r.MayContain(key) {
			s.bloomSkips.Add(1)
			s.met.bloomSkipsC.Inc()
			continue
		}
		v, err := r.Get(key)
		if err == nil {
			if filtered {
				s.bloomHits.Add(1)
				s.met.bloomHitsC.Inc()
			}
			return s.returnLive(key, v)
		}
		if !errors.Is(err, sstable.ErrNotFound) {
			return nil, false, err
		}
		if filtered {
			s.bloomFP.Add(1)
			s.met.bloomFPC.Inc()
		}
	}
	return nil, false, nil
}

// returnLive decodes a stored value and accounts the user bytes returned.
// Tombstone hits return no payload and count nothing.
func (s *Store) returnLive(key, stored []byte) ([]byte, bool, error) {
	v, ok, err := decodeLive(stored)
	if ok {
		n := int64(len(key) + len(v))
		s.logicalReadBytes.Add(n)
		s.met.logicalReadC.Add(n)
	}
	return v, ok, err
}

func decodeLive(stored []byte) ([]byte, bool, error) {
	if len(stored) == 0 {
		return nil, false, fmt.Errorf("%w: empty stored value", ErrCorrupt)
	}
	if stored[0] == tagTombstone {
		return nil, false, nil
	}
	return stored[1:], true, nil
}

// diskReadBytes is the query read path's disk traffic: block-cache misses
// plus the windows sequential query iterators fetched.
func (s *Store) diskReadBytes() int64 {
	return s.cache.Stats().DiskReadBytes + s.seqReadBytes.Load()
}

// Stats returns a snapshot of cumulative counters, the amplification
// ledger, and the store's current shape.
func (s *Store) Stats() Stats {
	st := Stats{
		Puts:         s.puts.Load(),
		Deletes:      s.deletes.Load(),
		Gets:         s.gets.Load(),
		Scans:        s.scans.Load(),
		Flushes:      s.flushes.Load(),
		Compactions:  s.compactions.Load(),
		StallEvents:  s.stalls.Load(),
		BatchApplies: s.batchApplies.Load(),

		LogicalBytes:      s.logicalBytes.Load(),
		WALBytes:          s.walBytes.Load(),
		FlushBytes:        s.flushBytes.Load(),
		CompactReadBytes:  s.compactReadBytes.Load(),
		CompactWriteBytes: s.compactWriteBytes.Load(),
		LogicalReadBytes:  s.logicalReadBytes.Load(),

		BloomHits:           s.bloomHits.Load(),
		BloomSkips:          s.bloomSkips.Load(),
		BloomFalsePositives: s.bloomFP.Load(),

		CompressRawBytes:    s.compressRaw.Load(),
		CompressStoredBytes: s.compressStored.Load(),
		PruneKeySkips:       s.pruneKey.Load(),
		PruneTimeSkips:      s.pruneTime.Load(),
	}
	cs := s.cache.Stats()
	st.DiskReadBytes = cs.DiskReadBytes + s.seqReadBytes.Load()
	st.CacheHits = cs.Hits
	st.CacheMisses = cs.Misses
	st.CacheEvictions = cs.Evictions
	st.CacheUsedBytes = cs.UsedBytes

	s.mu.RLock()
	st.Tables = len(s.tables)
	for _, t := range s.tables {
		st.TableBytes += t.size
	}
	st.CompactionDebtBytes = s.compactionDebtLocked()
	st.MemtableBytes = s.active.Size()
	s.mu.RUnlock()
	return st
}

// TableStat describes one live store file for introspection endpoints.
// Keys are reported as strings (the benchmark keyspace is printable).
type TableStat struct {
	ID         uint64  `json:"id"`
	Path       string  `json:"path"`
	FirstKey   string  `json:"first_key"`
	LastKey    string  `json:"last_key"`
	SizeBytes  int64   `json:"size_bytes"`
	Entries    uint64  `json:"entries"`
	Tombstones int64   `json:"tombstones"`
	AgeSeconds float64 `json:"age_seconds"`
	HasBloom   bool    `json:"has_bloom"`

	// Time-window placement: the key timestamp bounds from the footer (unix
	// ms; meaningless when HasTimeBounds is false) and the compaction window
	// the table falls in.
	MinTS         int64  `json:"min_ts"`
	MaxTS         int64  `json:"max_ts"`
	HasTimeBounds bool   `json:"has_time_bounds"`
	Window        int64  `json:"window"`
	Compression   string `json:"compression"`
}

// TableStats reports every live table, newest first. The table set holds a
// reference on each handle for as long as it is listed, so the readers are
// open for the duration of the snapshot.
func (s *Store) TableStats() []TableStat {
	now := time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]TableStat, 0, len(s.tables))
	windowMS := s.opts.WindowDuration.Milliseconds()
	for _, t := range s.tables {
		out = append(out, TableStat{
			ID:            t.id,
			Path:          t.path,
			FirstKey:      string(t.firstKey),
			LastKey:       string(t.lastKey),
			SizeBytes:     t.size,
			Entries:       t.reader.EntryCount(),
			Tombstones:    t.tombstones,
			AgeSeconds:    now.Sub(t.created).Seconds(),
			HasBloom:      t.reader.FilterPresent(),
			MinTS:         t.minTS,
			MaxTS:         t.maxTS,
			HasTimeBounds: t.hasTS,
			Window:        t.window(windowMS),
			Compression:   t.reader.Compression().String(),
		})
	}
	return out
}

// Health is a point-in-time liveness view of the store, cheap enough for a
// health endpoint to poll.
type Health struct {
	// Stalled reports writers blocked on MaxStoreFiles backpressure right
	// now; StallWaiters is how many.
	Stalled      bool  `json:"stalled"`
	StallWaiters int64 `json:"stall_waiters"`
	// FlushPending reports an immutable memtable waiting on (or in) flush.
	FlushPending bool `json:"flush_pending"`
	// Tables against the backpressure cap and compaction trigger.
	Tables         int `json:"tables"`
	MaxStoreFiles  int `json:"max_store_files"`
	CompactTrigger int `json:"compact_trigger"`
	// Active memtable fill against its flush threshold.
	MemtableBytes int64 `json:"memtable_bytes"`
	MemtableCap   int64 `json:"memtable_cap"`
	Closed        bool  `json:"closed"`
}

// OK reports whether the store is open and accepting writes without
// backpressure.
func (h Health) OK() bool { return !h.Closed && !h.Stalled }

// Health reports the store's current liveness.
func (s *Store) Health() Health {
	h := Health{
		StallWaiters:   s.stallWaiters.Load(),
		MaxStoreFiles:  s.opts.MaxStoreFiles,
		CompactTrigger: s.opts.CompactTrigger,
		MemtableCap:    s.opts.MemtableSize,
	}
	h.Stalled = h.StallWaiters > 0
	s.mu.RLock()
	h.FlushPending = s.imm != nil
	h.Tables = len(s.tables)
	h.MemtableBytes = s.active.Size()
	h.Closed = s.closed
	s.mu.RUnlock()
	return h
}

// tablesGauge counts live table files ("lsm.tables").
func (s *Store) tablesGauge() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.tables))
}

// memtableBytesGauge reports the active memtable's approximate size
// ("lsm.memtable_bytes").
func (s *Store) memtableBytesGauge() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.active.Size()
}

// tableBytesGauge sums live table file sizes ("lsm.table_bytes").
func (s *Store) tableBytesGauge() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, t := range s.tables {
		n += t.size
	}
	return n
}

// compactionDebtGauge reports the windowed picker's pending rewrite bytes
// ("lsm.compaction_debt_bytes"); see compactionDebtLocked.
func (s *Store) compactionDebtGauge() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.compactionDebtLocked()
}

// hotWindowTablesGauge counts tables in the hot time window
// ("lsm.hot_window_tables").
func (s *Store) hotWindowTablesGauge() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.tables) == 0 {
		return 0
	}
	windowMS := s.opts.WindowDuration.Milliseconds()
	hot := s.tables[0].window(windowMS)
	var n int64
	for _, t := range s.tables {
		if t.window(windowMS) == hot {
			n++
		}
	}
	return n
}

// RegisterDerivedGauges registers the cluster-level amplification ratios on
// reg as milli-unit gauges (a value of 3200 means 3.2×): "lsm.write_amp_milli"
// is (wal.bytes + lsm.flush_bytes + lsm.compact_write_bytes) over
// lsm.logical_bytes, and "lsm.read_amp_milli" is lsm.disk_read_bytes over
// lsm.logical_read_bytes. Registration is once-only (Registry.GaugeOnce):
// ratios must not be registered per store, or a registry shared by N stores
// would report N× the true value. Open calls this; exported for callers that
// assemble registries without opening a store first. Nil-safe.
func RegisterDerivedGauges(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	logical := reg.Counter("lsm.logical_bytes")
	walB := reg.Counter("wal.bytes")
	flushB := reg.Counter("lsm.flush_bytes")
	compW := reg.Counter("lsm.compact_write_bytes")
	reg.GaugeOnce("lsm.write_amp_milli", func() int64 {
		l := logical.Load()
		if l == 0 {
			return 0
		}
		return (walB.Load() + flushB.Load() + compW.Load()) * 1000 / l
	})
	logicalRead := reg.Counter("lsm.logical_read_bytes")
	reg.GaugeOnce("lsm.read_amp_milli", func() int64 {
		lr := logicalRead.Load()
		if lr == 0 {
			return 0
		}
		return reg.GaugeValue("lsm.disk_read_bytes") * 1000 / lr
	})
}

// Close flushes and shuts the store down.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	// Final flush while still open.
	if err := s.Flush(); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}

	// Stop the background compactor before tearing the table set down; an
	// in-flight compaction finishes and installs normally first.
	s.stopOnce.Do(func() { close(s.quit) })
	s.bg.Wait()

	s.mu.Lock()
	s.closed = true
	s.flushCond.Broadcast()
	tables := s.tables
	s.tables = nil
	log := s.log
	s.mu.Unlock()

	err := log.Close()
	if merr := s.manifest.close(); err == nil {
		err = merr
	}
	for _, t := range tables {
		t.release()
	}
	return err
}

// Destroy closes the store and removes all files. For benchmark cleanup
// (the TPCx-IoT system cleanup between iterations purges all ingested data).
func (s *Store) Destroy() error {
	if err := s.Close(); err != nil {
		return err
	}
	return os.RemoveAll(s.opts.Dir)
}
