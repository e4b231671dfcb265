package lsm

import (
	"bytes"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/sstable"
)

// Iter is a long-lived streaming iterator over a pinned snapshot of the
// store: the memtable views and the table set captured at NewIterator time.
// The snapshot is held by reference — each table handle's refcount is
// incremented for the iterator's lifetime, and memtable nodes are never
// unlinked — so the iterator survives concurrent flushes and compactions
// without rescanning and without observing their effects: a table retired
// by compaction stays readable until Close, and a table installed after the
// snapshot is never consulted (its contents are the pinned memtable's, so
// consulting both would duplicate rows).
//
// Iterators position only on live entries (tombstones are merged away) and
// stop at the exclusive upper bound fixed at open. Key and Value return
// slices owned by the snapshot, valid until the next call to Next or Close;
// callers that retain rows must copy them. An Iter is not safe for
// concurrent use, but any number of iterators may run concurrently with
// each other and with writers.
type Iter struct {
	store  *Store
	held   []*tableHandle
	seq    []*sstable.Iterator // sequential sources, for the disk-read ledger
	merged *mergeIterator
	hi     []byte // exclusive upper bound; nil = end of keyspace
	closed bool

	// Time filter, set by NewIteratorTime: only entries whose key timestamp
	// falls in [tsLo, tsHi) are yielded (entries without an extractable
	// timestamp never match a time-range query).
	tsLo, tsHi int64
	tsFilter   bool

	// bytesRead accumulates the user bytes this iterator yielded, counted
	// locally and flushed to the store's read ledger once at Close so long
	// scans cost no per-row atomics.
	bytesRead int64
}

// NewIterator opens a streaming iterator over live entries with
// lo <= key < hi, in ascending key order. A nil hi scans to the end of the
// keyspace. The returned iterator is positioned at the first entry (check
// Valid); it observes a snapshot pinned at this call and MUST be closed to
// release the pinned table files.
//
// Tables whose footer key bounds cannot intersect [lo, hi) are pruned from
// the snapshot — never pinned, never read. A table the range covers
// entirely is read end to end, so it streams through a sequential
// iterator that bypasses the block cache; the rest use the cached path.
func (s *Store) NewIterator(lo, hi []byte) (*Iter, error) {
	return s.newIter(lo, hi, 0, 0, false)
}

// NewIteratorTime is NewIterator restricted to entries whose key timestamp
// (per kvp.TimestampOf) satisfies minTS <= ts < maxTS, both unix ms.
// Entries without an extractable timestamp are outside every time range.
// Beyond the per-entry filter, whole table files are pruned when their
// footer time bounds cannot intersect the range, so scans over cold windows
// skip the bulk of the store without any I/O; tables without time bounds
// (no timestamped keys) are conservatively read and filtered entry by
// entry.
func (s *Store) NewIteratorTime(lo, hi []byte, minTS, maxTS int64) (*Iter, error) {
	return s.newIter(lo, hi, minTS, maxTS, true)
}

func (s *Store) newIter(lo, hi []byte, tsLo, tsHi int64, tsFilter bool) (*Iter, error) {
	if hi != nil && bytes.Compare(lo, hi) > 0 {
		return nil, ErrBadRange
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	sources := make([]iterator, 0, 2+len(s.tables))
	ait := s.active.NewIterator()
	ait.Seek(lo)
	sources = append(sources, memIter{ait})
	if s.imm != nil {
		iit := s.imm.NewIterator()
		iit.Seek(lo)
		sources = append(sources, memIter{iit})
	}
	held := make([]*tableHandle, 0, len(s.tables))
	var seq []*sstable.Iterator
	var keyPruned, timePruned int64
	for _, t := range s.tables {
		// Key-range pruning against the footer bounds. lo > last rules the
		// table out below the range; first >= hi rules it out above.
		if bytes.Compare(t.lastKey, lo) < 0 ||
			(hi != nil && bytes.Compare(t.firstKey, hi) >= 0) {
			keyPruned++
			continue
		}
		// Time-range pruning: sound only when the table has bounds (they
		// then cover every timestamped key, and untimestamped keys match no
		// time range anyway).
		if tsFilter && t.hasTS && (t.maxTS < tsLo || t.minTS >= tsHi) {
			timePruned++
			continue
		}
		t.acquire()
		held = append(held, t)
		var it *sstable.Iterator
		if t.within(lo, hi, tsLo, tsHi, tsFilter) {
			it = t.reader.NewSeqIterator()
			seq = append(seq, it)
		} else {
			it = t.reader.NewIterator()
		}
		it.Seek(lo)
		sources = append(sources, it)
	}
	s.mu.RUnlock()
	s.scans.Add(1)
	if keyPruned > 0 {
		s.pruneKey.Add(keyPruned)
		s.met.pruneKeyC.Add(keyPruned)
	}
	if timePruned > 0 {
		s.pruneTime.Add(timePruned)
		s.met.pruneTimeC.Add(timePruned)
	}

	it := &Iter{
		store: s, held: held, seq: seq, merged: newMergeIterator(sources), hi: hi,
		tsLo: tsLo, tsHi: tsHi, tsFilter: tsFilter,
	}
	it.skipDead()
	it.account()
	return it, nil
}

// within reports whether the table lies wholly inside the read: its key
// range inside [lo, hi) and, for a time-filtered read, its time bounds
// inside [tsLo, tsHi). Such a table is read end to end.
func (t *tableHandle) within(lo, hi []byte, tsLo, tsHi int64, tsFilter bool) bool {
	if bytes.Compare(t.firstKey, lo) < 0 || (hi != nil && bytes.Compare(t.lastKey, hi) >= 0) {
		return false
	}
	return !tsFilter || (t.hasTS && t.minTS >= tsLo && t.maxTS < tsHi)
}

// account charges the entry the iterator currently rests on to the local
// read ledger. Called once per positioning, never per Key/Value access.
func (it *Iter) account() {
	if it.merged.Valid() {
		// len(Value())-1 strips the live tag byte callers never see.
		it.bytesRead += int64(len(it.merged.Key()) + len(it.merged.Value()) - 1)
	}
}

// skipDead advances the merge past tombstones, entries outside the time
// filter, and clamps at the upper bound, so the iterator rests on a live
// in-range entry or exhausts.
func (it *Iter) skipDead() {
	for it.merged.Valid() {
		if it.hi != nil && bytes.Compare(it.merged.Key(), it.hi) >= 0 {
			it.merged.cur = -1 // past the bound: exhaust without erroring
			return
		}
		if v := it.merged.Value(); len(v) > 0 && v[0] == tagValue {
			if !it.tsFilter {
				return
			}
			ts, ok := kvp.TimestampOf(it.merged.Key())
			if ok && ts >= it.tsLo && ts < it.tsHi {
				return
			}
		}
		it.merged.Next()
	}
}

// Valid reports whether the iterator is positioned at a live entry.
func (it *Iter) Valid() bool { return !it.closed && it.merged.Valid() }

// Key returns the current key; valid until the next Next or Close.
func (it *Iter) Key() []byte { return it.merged.Key() }

// Value returns the current live value (tag stripped); valid until the
// next Next or Close.
func (it *Iter) Value() []byte { return it.merged.Value()[1:] }

// Next advances to the following live entry.
func (it *Iter) Next() {
	if !it.Valid() {
		return
	}
	it.merged.Next()
	it.skipDead()
	it.account()
}

// Error returns the first source error encountered.
func (it *Iter) Error() error { return it.merged.Error() }

// Close releases the pinned snapshot. Safe to call more than once.
func (it *Iter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	if it.bytesRead > 0 {
		it.store.logicalReadBytes.Add(it.bytesRead)
		it.store.met.logicalReadC.Add(it.bytesRead)
		it.bytesRead = 0
	}
	var diskRead int64
	for _, si := range it.seq {
		diskRead += si.DiskReadBytes()
	}
	it.store.seqReadBytes.Add(diskRead)
	it.seq = nil
	for _, t := range it.held {
		t.release()
	}
	it.held = nil
	return it.merged.Error()
}
