package ycsb

import (
	"bytes"
	"sort"
	"sync"
)

// MemDB is a sorted in-memory DB binding used by framework tests and as a
// reference implementation for bindings. Safe for concurrent use, so one
// instance may back every thread. Inserts are O(1); the sorted view is
// rebuilt lazily on the first scan after a write.
type MemDB struct {
	mu    sync.RWMutex
	keys  [][]byte // sorted when !dirty
	dirty bool
	vals  map[string][]byte
}

// NewMemDB returns an empty in-memory binding.
func NewMemDB() *MemDB {
	return &MemDB{vals: make(map[string][]byte)}
}

// Insert implements DB.
func (m *MemDB) Insert(key, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.vals[string(key)]; !exists {
		m.keys = append(m.keys, append([]byte(nil), key...))
		m.dirty = true
	}
	m.vals[string(key)] = append([]byte(nil), value...)
	return nil
}

// Read implements DB.
func (m *MemDB) Read(key []byte) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.vals[string(key)]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// sortLocked re-sorts the key index if needed. Caller holds the write lock.
func (m *MemDB) sortLocked() {
	if !m.dirty {
		return
	}
	sort.Slice(m.keys, func(i, j int) bool { return bytes.Compare(m.keys[i], m.keys[j]) < 0 })
	m.dirty = false
}

// ScanIter implements DB by copying the range under the lock and streaming
// the copy — the reference binding has no streaming backend.
func (m *MemDB) ScanIter(lo, hi []byte, limit int) (RowIter, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sortLocked()
	start := sort.Search(len(m.keys), func(i int) bool {
		return bytes.Compare(m.keys[i], lo) >= 0
	})
	var out []KV
	for i := start; i < len(m.keys); i++ {
		if hi != nil && bytes.Compare(m.keys[i], hi) >= 0 {
			break
		}
		if limit > 0 && len(out) >= limit {
			break
		}
		k := m.keys[i]
		out = append(out, KV{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), m.vals[string(k)]...),
		})
	}
	return SliceIter(out), nil
}

// Len returns the number of stored records.
func (m *MemDB) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.keys)
}

// Close implements DB; it is a no-op so one MemDB can serve many threads.
func (m *MemDB) Close() error { return nil }
