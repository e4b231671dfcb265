package sstable

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"tpcxiot/internal/bloom"
)

// Reader provides point lookups and range scans over a finished table.
// Safe for concurrent use.
type Reader struct {
	mu     sync.RWMutex
	f      *os.File
	size   int64
	closed bool

	index   *block
	filter  bloom.Filter
	entries uint64
	first   []byte // smallest key
	last    []byte // largest key

	compression  Compression // data-block encoding declared by the footer
	minTS, maxTS int64       // time bounds from the footer
	hasTS        bool        // false for timestamp-less keys

	// cache holds parsed data blocks, bounded LRU-style. Private per
	// reader unless a shared cache is supplied at open.
	cache *BlockCache
}

// Open opens the table at path and loads its index and Bloom filter, with
// a private block cache of the default size.
func Open(path string) (*Reader, error) {
	return OpenWithCache(path, nil)
}

// OpenWithCache opens the table using the given shared block cache; nil
// creates a private cache of the default size.
func OpenWithCache(path string, cache *BlockCache) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sstable: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sstable: stat: %w", err)
	}
	if cache == nil {
		cache = NewBlockCache(0)
	}
	r := &Reader{f: f, size: st.Size(), cache: cache}
	if err := r.loadFooter(); err != nil {
		f.Close()
		return nil, err
	}
	if err := r.loadBounds(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func (r *Reader) loadFooter() error {
	if r.size < footerLen {
		return corruptf("file of %d bytes has no footer", r.size)
	}
	buf := make([]byte, footerLen)
	if _, err := r.f.ReadAt(buf, r.size-footerLen); err != nil {
		return fmt.Errorf("sstable: read footer: %w", err)
	}
	ft, err := decodeFooter(buf)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	r.entries = ft.entries
	r.compression = ft.compression
	r.minTS, r.maxTS, r.hasTS = ft.minTS, ft.maxTS, ft.hasTS

	rawIndex, err := r.readBlockRaw(ft.index)
	if err != nil {
		return err
	}
	r.index, err = parseBlock(rawIndex)
	if err != nil {
		return err
	}

	if ft.bloom.length > 0 {
		rawBloom, err := r.readBlockRaw(ft.bloom)
		if err != nil {
			return err
		}
		r.filter = bloom.Filter(rawBloom)
	}
	return nil
}

func (r *Reader) loadBounds() error {
	it := r.NewIterator()
	it.SeekToFirst()
	if !it.Valid() {
		return corruptf("table reports %d entries but iterates empty", r.entries)
	}
	r.first = append([]byte(nil), it.Key()...)

	// Largest key: last entry of the last data block. The index's last
	// entry key equals the table's last key by construction.
	last := r.index.iter()
	last.seekToFirst()
	var lk []byte
	for last.valid {
		lk = append(lk[:0], last.key...)
		last.next()
	}
	if last.err != nil {
		return last.err
	}
	r.last = append([]byte(nil), lk...)
	return it.Error()
}

// readBlockRaw reads, checksum-verifies and decompresses a block. The
// handle's length is the stored (possibly compressed) payload size;
// disk-read accounting records the stored bytes actually fetched.
func (r *Reader) readBlockRaw(h handle) ([]byte, error) {
	if h.offset+h.length+trailerLen > uint64(r.size) {
		return nil, corruptf("block handle %d+%d beyond file size %d", h.offset, h.length, r.size)
	}
	buf := make([]byte, h.length+trailerLen)
	if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil {
		return nil, fmt.Errorf("sstable: read block: %w", err)
	}
	if r.cache != nil {
		r.cache.recordDiskRead(int64(len(buf)))
	}
	// Trailer: [type][crc32(payload+type)].
	body := buf[:h.length]
	ctype := Compression(buf[h.length])
	want := binary.LittleEndian.Uint32(buf[h.length+1:])
	got := crc32.Update(checksum(body), crcTable, buf[h.length:h.length+1])
	if got != want {
		return nil, corruptf("checksum mismatch for block at %d", h.offset)
	}
	switch ctype {
	case NoCompression:
		return body, nil
	case FlateCompression:
		fr := flate.NewReader(bytes.NewReader(body))
		raw, err := io.ReadAll(fr)
		if err != nil {
			return nil, corruptf("decompress block at %d: %v", h.offset, err)
		}
		if err := fr.Close(); err != nil {
			return nil, corruptf("decompress block at %d: %v", h.offset, err)
		}
		return raw, nil
	}
	return nil, corruptf("unknown block compression %d at %d", ctype, h.offset)
}

// dataBlock returns the parsed data block for a handle, consulting the cache.
func (r *Reader) dataBlock(h handle) (*block, error) {
	if b, ok := r.cache.get(r, h.offset); ok {
		return b, nil
	}
	raw, err := r.readBlockRaw(h)
	if err != nil {
		return nil, err
	}
	b, err := parseBlock(raw)
	if err != nil {
		return nil, err
	}
	r.cache.put(r, h.offset, b)
	return b, nil
}

// EntryCount returns the number of entries in the table.
func (r *Reader) EntryCount() uint64 { return r.entries }

// Size returns the table file's size in bytes.
func (r *Reader) Size() int64 { return r.size }

// FilterPresent reports whether the table carries a Bloom filter; when
// false, MayContain is vacuously true and cannot be used to classify
// lookups as filter hits or false positives.
func (r *Reader) FilterPresent() bool { return r.filter != nil }

// Bounds returns the smallest and largest keys. The slices are shared;
// callers must not modify them.
func (r *Reader) Bounds() (first, last []byte) { return r.first, r.last }

// TimeBounds returns the table's min/max key timestamps from the footer.
// ok is false for tables whose keys carried no extractable timestamp; such
// tables can never be pruned by time.
func (r *Reader) TimeBounds() (min, max int64, ok bool) {
	return r.minTS, r.maxTS, r.hasTS
}

// Compression reports the data-block encoding declared by the footer.
func (r *Reader) Compression() Compression { return r.compression }

// MayContain consults the Bloom filter. True is probabilistic; false is
// definite. Tables written without a filter always return true.
func (r *Reader) MayContain(key []byte) bool {
	if r.filter == nil {
		return true
	}
	return r.filter.MayContain(key)
}

// Get returns the value for key, or ErrNotFound.
func (r *Reader) Get(key []byte) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrClosed
	}
	if !r.MayContain(key) {
		return nil, ErrNotFound
	}
	it := r.NewIterator()
	it.Seek(key)
	if err := it.Error(); err != nil {
		return nil, err
	}
	if !it.Valid() || !bytes.Equal(it.Key(), key) {
		return nil, ErrNotFound
	}
	return append([]byte(nil), it.Value()...), nil
}

// Close releases the underlying file. Iterators must not be used afterwards.
func (r *Reader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	r.cache.evictOwner(r)
	return r.f.Close()
}

// Iterator walks a table in ascending key order.
type Iterator struct {
	r       *Reader
	indexIt *blockIter
	dataIt  *blockIter
	err     error
}

// NewIterator returns an unpositioned iterator; call Seek or SeekToFirst.
func (r *Reader) NewIterator() *Iterator {
	return &Iterator{r: r, indexIt: r.index.iter()}
}

// SeekToFirst positions at the table's first entry.
func (it *Iterator) SeekToFirst() {
	it.err = nil
	it.indexIt.seekToFirst()
	it.loadDataBlock()
	if it.dataIt != nil {
		it.dataIt.seekToFirst()
	}
	it.skipForward()
}

// Seek positions at the first entry with key >= target.
func (it *Iterator) Seek(target []byte) {
	it.err = nil
	// Index entries hold the LAST key of each block, so the first index
	// entry with key >= target names the block that may contain target.
	it.indexIt.seek(target)
	it.loadDataBlock()
	if it.dataIt != nil {
		it.dataIt.seek(target)
	}
	it.skipForward()
}

// Next advances one entry.
func (it *Iterator) Next() {
	if it.dataIt == nil || it.err != nil {
		return
	}
	it.dataIt.next()
	it.skipForward()
}

// skipForward advances to the next non-empty data block when the current
// block is exhausted.
func (it *Iterator) skipForward() {
	for it.err == nil && (it.dataIt == nil || !it.dataIt.valid) {
		if it.dataIt != nil && it.dataIt.err != nil {
			it.err = it.dataIt.err
			return
		}
		it.indexIt.next()
		if it.indexIt.err != nil {
			it.err = it.indexIt.err
			return
		}
		if !it.indexIt.valid {
			it.dataIt = nil
			return
		}
		it.loadDataBlock()
		if it.dataIt != nil {
			it.dataIt.seekToFirst()
		}
	}
}

// loadDataBlock parses the block referenced by the current index entry.
func (it *Iterator) loadDataBlock() {
	it.dataIt = nil
	if !it.indexIt.valid {
		return
	}
	if len(it.indexIt.value) != 16 {
		it.err = corruptf("index value of %d bytes", len(it.indexIt.value))
		return
	}
	b, err := it.r.dataBlock(decodeHandle(it.indexIt.value))
	if err != nil {
		it.err = err
		return
	}
	it.dataIt = b.iter()
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool {
	return it.err == nil && it.dataIt != nil && it.dataIt.valid
}

// Key returns the current key; valid until the next positioning call.
func (it *Iterator) Key() []byte { return it.dataIt.key }

// Value returns the current value; valid until the next positioning call.
func (it *Iterator) Value() []byte { return it.dataIt.value }

// Error returns the first corruption or I/O error encountered.
func (it *Iterator) Error() error { return it.err }
