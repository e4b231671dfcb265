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
	f      file
	size   int64
	closed bool

	index   *block
	filter  bloom.Filter
	entries uint64
	first   []byte // smallest key
	last    []byte // largest key

	dataEnd      uint64      // end of the data blocks: the bloom or index offset
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
	r, err := newReader(f, st.Size(), cache)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// file is what a Reader needs of its table file.
type file interface {
	io.ReaderAt
	io.Closer
}

// newReader parses the footer, index, filter and key bounds of the size
// bytes behind f; on error the caller still owns f.
func newReader(f file, size int64, cache *BlockCache) (*Reader, error) {
	if cache == nil {
		cache = NewBlockCache(0)
	}
	r := &Reader{f: f, size: size, cache: cache}
	if err := r.loadFooter(); err != nil {
		return nil, err
	}
	if err := r.loadBounds(); err != nil {
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

	var inf inflater
	rawIndex, err := r.readBlockRaw(ft.index, uint64(r.size), &inf)
	if err != nil {
		return err
	}
	r.index, err = parseBlock(rawIndex)
	if err != nil {
		return err
	}
	r.dataEnd = ft.index.offset

	if ft.bloom.length > 0 {
		rawBloom, err := r.readBlockRaw(ft.bloom, uint64(r.size), &inf)
		if err != nil {
			return err
		}
		r.filter = bloom.Filter(rawBloom)
		r.dataEnd = min(r.dataEnd, ft.bloom.offset)
	}
	return nil
}

// loadBounds records the smallest and largest keys. The first key comes
// from the first data block, read without the block cache; the largest is
// the index's last key, which equals the table's last key by construction.
func (r *Reader) loadBounds() error {
	ix := r.index.iter()
	ix.seekToFirst()
	if !ix.valid {
		if ix.err != nil {
			return ix.err
		}
		return corruptf("table reports %d entries but has no data blocks", r.entries)
	}
	h, err := indexHandle(ix.value)
	if err != nil {
		return err
	}
	var inf inflater
	raw, err := r.readBlockRaw(h, r.dataEnd, &inf)
	if err != nil {
		return err
	}
	b, err := parseBlock(raw)
	if err != nil {
		return err
	}
	first := b.iter()
	first.seekToFirst()
	if !first.valid {
		if first.err != nil {
			return first.err
		}
		return corruptf("table reports %d entries but its first block is empty", r.entries)
	}
	r.first = append([]byte(nil), first.key...)

	lk := append([]byte(nil), ix.key...)
	for ix.next() {
		lk = append(lk[:0], ix.key...)
	}
	if ix.err != nil {
		return ix.err
	}
	r.last = lk
	return nil
}

// indexHandle decodes the data-block handle an index entry points at.
func indexHandle(value []byte) (handle, error) {
	if len(value) != 16 {
		return handle{}, corruptf("index value of %d bytes", len(value))
	}
	return decodeHandle(value), nil
}

// readBlockRaw reads the block at h, which must lie within the first limit
// bytes of the file, into a fresh buffer and decodes it.
func (r *Reader) readBlockRaw(h handle, limit uint64, inf *inflater) ([]byte, error) {
	end, err := h.span(limit)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, end-h.offset)
	if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil {
		return nil, fmt.Errorf("sstable: read block: %w", err)
	}
	return decodeBlock(buf, h, inf, nil)
}

// decodeBlock verifies and decodes one stored block: its payload plus the
// trailer, exactly as read from h.offset. It checks the length against the
// handle and the CRC over payload and type byte, then returns the payload
// itself (raw blocks, aliasing stored) or its inflation by inf appended to
// dst[:0] (flate blocks). Every block read, cached or sequential, passes
// here.
func decodeBlock(stored []byte, h handle, inf *inflater, dst []byte) ([]byte, error) {
	if uint64(len(stored)) != h.length+trailerLen {
		return nil, corruptf("block at %d: %d stored bytes, handle says %d", h.offset, len(stored), h.length+trailerLen)
	}
	// Trailer: [type][crc32(payload+type)].
	body := stored[:h.length]
	ctype := Compression(stored[h.length])
	want := binary.LittleEndian.Uint32(stored[h.length+1:])
	got := crc32.Update(checksum(body), crcTable, stored[h.length:h.length+1])
	if got != want {
		return nil, corruptf("checksum mismatch for block at %d", h.offset)
	}
	switch ctype {
	case NoCompression:
		return body, nil
	case FlateCompression:
		raw, err := inf.inflate(body, dst)
		if err != nil {
			return nil, corruptf("decompress block at %d: %v", h.offset, err)
		}
		return raw, nil
	}
	return nil, corruptf("unknown block compression %d at %d", ctype, h.offset)
}

// inflater is a DEFLATE decoder reused across the blocks one iterator
// reads; a fresh flate reader allocates tens of kilobytes of tables, so it
// is built on the first compressed block only. The zero value is ready.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

// inflate decompresses body, appending to dst[:0]. The output grows only as
// decoded bytes arrive; a nil dst starts at twice the stored size.
func (inf *inflater) inflate(body, dst []byte) ([]byte, error) {
	inf.src.Reset(body)
	if inf.fr == nil {
		inf.fr = flate.NewReader(&inf.src)
	} else if err := inf.fr.(flate.Resetter).Reset(&inf.src, nil); err != nil {
		return nil, err
	}
	out := dst[:0]
	if out == nil {
		out = make([]byte, 0, 2*len(body))
	}
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := inf.fr.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// dataBlock returns the parsed data block for a handle, consulting the
// cache; a miss charges the stored bytes to the cache's disk-read counter.
func (r *Reader) dataBlock(h handle, inf *inflater) (*block, error) {
	if b, ok := r.cache.get(r, h.offset); ok {
		return b, nil
	}
	raw, err := r.readBlockRaw(h, r.dataEnd, inf)
	if err != nil {
		return nil, err
	}
	r.cache.recordDiskRead(int64(h.length + trailerLen))
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

// Iterator walks a table in ascending key order. A cached iterator
// (NewIterator) fetches each data block through the block cache; a
// sequential one (NewSeqIterator) streams them through a private read-ahead
// window and never touches the cache.
type Iterator struct {
	r       *Reader
	indexIt *blockIter
	dataIt  *blockIter
	err     error
	inf     inflater
	ra      *readAhead // non-nil for a sequential iterator
}

// NewIterator returns an unpositioned cached iterator; call Seek or
// SeekToFirst. It suits reads that touch a few blocks: point lookups and
// ranges narrower than the table.
func (r *Reader) NewIterator() *Iterator {
	return &Iterator{r: r, indexIt: r.index.iter()}
}

// NewSeqIterator returns an unpositioned sequential iterator for a read
// that covers the table end to end, such as a compaction input or a scan
// whose range spans the whole table. It reads the data region front to
// back in windows of up to readAheadBytes, parses each block in place and
// neither consults nor fills the block cache. Key and Value slices are
// valid only until the next positioning call.
func (r *Reader) NewSeqIterator() *Iterator {
	return &Iterator{r: r, indexIt: r.index.iter(), ra: &readAhead{r: r}}
}

// DiskReadBytes reports the bytes a sequential iterator has fetched from
// disk; 0 for a cached iterator, whose misses the block cache counts.
func (it *Iterator) DiskReadBytes() int64 {
	if it.ra == nil {
		return 0
	}
	return it.ra.read
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
	h, err := indexHandle(it.indexIt.value)
	if err != nil {
		it.err = err
		return
	}
	if it.ra != nil {
		it.dataIt, it.err = it.ra.block(h, &it.inf)
		return
	}
	b, err := it.r.dataBlock(h, &it.inf)
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
