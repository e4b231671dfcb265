// Package region implements key-range regions, the unit of distribution and
// load balancing in the gateway's storage tier.
//
// As in HBase, a table's keyspace is partitioned into contiguous key ranges.
// Each region owns the half-open interval [StartKey, EndKey) — a nil
// StartKey means "from the beginning", a nil EndKey "to the end" — and is
// backed by its own LSM store. Regions never split: the TPCx-IoT deployment
// pre-splits the table on substation-key boundaries, the documented best
// practice for the benchmark's uniform ingest, and a region keeps its bounds
// for its whole life.
package region

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// Sentinel errors.
var (
	ErrOutOfRange = errors.New("region: key outside region bounds")
)

// Info is a region's identity and bounds.
type Info struct {
	// Table is the owning table's name.
	Table string
	// Name uniquely identifies the region, e.g. "iot,0003".
	Name string
	// StartKey is the inclusive lower bound; nil means the keyspace start.
	StartKey []byte
	// EndKey is the exclusive upper bound; nil means the keyspace end.
	EndKey []byte
}

// Contains reports whether key falls inside the region's bounds.
func (in Info) Contains(key []byte) bool {
	if in.StartKey != nil && bytes.Compare(key, in.StartKey) < 0 {
		return false
	}
	if in.EndKey != nil && bytes.Compare(key, in.EndKey) >= 0 {
		return false
	}
	return true
}

// String renders the region identity with its bounds.
func (in Info) String() string {
	return fmt.Sprintf("%s[%q,%q)", in.Name, in.StartKey, in.EndKey)
}

// Region is a live key range backed by an LSM store.
type Region struct {
	info    Info
	store   *lsm.Store
	service string // trace-span service label, e.g. "node-02/iot,00001"

	// watermark is the replication sequence this replica last durably
	// applied (see replication.WatermarkObserver). Zero for a region that
	// never received replicated writes.
	watermark atomic.Uint64
}

// Open creates or reopens the region's store under dir.
func Open(info Info, dir string, storeOpts lsm.Options) (*Region, error) {
	storeOpts.Dir = filepath.Join(dir, info.Name)
	s, err := lsm.Open(storeOpts)
	if err != nil {
		return nil, fmt.Errorf("region %s: %w", info.Name, err)
	}
	return &Region{
		info:    info,
		store:   s,
		service: filepath.Base(dir) + "/" + info.Name,
	}, nil
}

// Info returns the region's identity.
func (r *Region) Info() Info { return r.info }

// NoteApplied records the replication sequence this replica has durably
// applied through — the replication worker calls it after each batch, and
// the monotonic guard makes stale notifications harmless.
func (r *Region) NoteApplied(seq uint64) {
	for {
		cur := r.watermark.Load()
		if seq <= cur || r.watermark.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// AppliedWatermark returns the replica's applied replication sequence, for
// the cluster's /storage document and replica-read gating.
func (r *Region) AppliedWatermark() uint64 { return r.watermark.Load() }

// Store exposes the backing store for engine stats and tests.
func (r *Region) Store() *lsm.Store { return r.store }

// Put writes a key-value pair, rejecting keys outside the region.
func (r *Region) Put(key, value []byte) error {
	if !r.info.Contains(key) {
		return fmt.Errorf("%w: %q not in %s", ErrOutOfRange, key, r.info)
	}
	return r.store.Put(key, value)
}

// Delete tombstones a key, rejecting keys outside the region.
func (r *Region) Delete(key []byte) error {
	if !r.info.Contains(key) {
		return fmt.Errorf("%w: %q not in %s", ErrOutOfRange, key, r.info)
	}
	return r.store.Delete(key)
}

// ApplyBatch applies a batch of writes in one engine round: a single
// bounds-check pass over every key, then the store's batched WAL group
// append and memtable apply. Rejecting before any write keeps the batch
// all-or-nothing with respect to region bounds. When parent is live the
// apply appears as a "region.apply" span in the region's own service (the
// node dir plus region name, e.g. "node-02/iot,00001"), with the engine's
// WAL/memtable children beneath it.
func (r *Region) ApplyBatch(parent telemetry.TSpan, writes []lsm.Write) error {
	for i := range writes {
		if !r.info.Contains(writes[i].Key) {
			return fmt.Errorf("%w: %q not in %s", ErrOutOfRange, writes[i].Key, r.info)
		}
	}
	sp := parent.ChildIn(r.service, "region.apply")
	err := r.store.ApplyBatch(sp, writes)
	sp.End()
	return err
}

// Get reads a key, rejecting keys outside the region.
func (r *Region) Get(key []byte) ([]byte, bool, error) {
	if !r.info.Contains(key) {
		return nil, false, fmt.Errorf("%w: %q not in %s", ErrOutOfRange, key, r.info)
	}
	return r.store.Get(key)
}

// clampRange clips a scan range to the region bounds.
func (r *Region) clampRange(lo, hi []byte) (clo, chi []byte) {
	if r.info.StartKey != nil && (lo == nil || bytes.Compare(lo, r.info.StartKey) < 0) {
		lo = r.info.StartKey
	}
	if r.info.EndKey != nil && (hi == nil || bytes.Compare(hi, r.info.EndKey) > 0) {
		hi = r.info.EndKey
	}
	return lo, hi
}

// NewIterator opens a streaming snapshot iterator over [lo, hi) clipped to
// the region bounds. The iterator pins the store snapshot captured here —
// it survives concurrent flushes and compactions — and must be closed.
func (r *Region) NewIterator(lo, hi []byte) (*lsm.Iter, error) {
	lo, hi = r.clampRange(lo, hi)
	it, err := r.store.NewIterator(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("region %s: %w", r.info.Name, err)
	}
	return it, nil
}

// Stats snapshots the backing store's cumulative activity and amplification
// ledger.
func (r *Region) Stats() lsm.Stats { return r.store.Stats() }

// TableStats reports the backing store's live table files, newest first.
func (r *Region) TableStats() []lsm.TableStat { return r.store.TableStats() }

// TierStats reports the backing store's table set grouped by compaction
// time window, newest first.
func (r *Region) TierStats() []lsm.TierStat { return r.store.TierStats() }

// AggregateTime folds live entries in [lo, hi) clipped to the region
// bounds, restricted to key timestamps in [minTS, maxTS), into per-series
// per-window partial aggregates evaluated inside the store — the region
// half of aggregation pushdown. The fold runs over a snapshot-pinned
// iterator with file-level key/time/Bloom pruning; see lsm.AggregateTime
// for windowing semantics.
func (r *Region) AggregateTime(lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) (lsm.AggResult, error) {
	lo, hi = r.clampRange(lo, hi)
	res, err := r.store.AggregateTime(lo, hi, minTS, maxTS, windowMS, funcs)
	if err != nil {
		return lsm.AggResult{}, fmt.Errorf("region %s: %w", r.info.Name, err)
	}
	return res, nil
}

// Health reports the backing store's liveness (stall, flush pressure).
func (r *Region) Health() lsm.Health { return r.store.Health() }

// Flush persists buffered writes to table files.
func (r *Region) Flush() error { return r.store.Flush() }

// Close shuts the region down, flushing first.
func (r *Region) Close() error { return r.store.Close() }

// Destroy closes the region and removes its files.
func (r *Region) Destroy() error { return r.store.Destroy() }
