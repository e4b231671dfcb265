package sstable

import (
	"bytes"
	"runtime"
	"testing"
)

// fuzzAllocSlack covers the fixed cost of one read pass independent of the
// file: the pooled DEFLATE decoder's tables and the Reader itself.
const fuzzAllocSlack = 256 << 10

// FuzzSSTableRead opens arbitrary file bytes as a table — through Open's
// parser, over the bytes in memory — and, when it accepts them, walks the
// table with both the cached and the sequential iterator. Nothing may panic; allocation must stay within a fixed slack
// plus a small multiple of the file size, so no buffer is ever sized from a
// header field the file cannot back; and when neither iterator errors,
// both must yield the same entries.
func FuzzSSTableRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cached, seq, cachedErr, seqErr := readBoth(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > fuzzAllocSlack+32*uint64(len(data)) {
			t.Fatalf("reading a %d-byte file allocated %d bytes", len(data), alloc)
		}
		if cachedErr != nil || seqErr != nil {
			return
		}
		if len(cached) != len(seq) {
			t.Fatalf("cached iterator yielded %d entries, sequential %d", len(cached), len(seq))
		}
		for i := range cached {
			if cached[i] != seq[i] {
				t.Fatalf("entry %d: cached %q, sequential %q", i, cached[i], seq[i])
			}
		}
	})
}

// memFile serves a table from memory.
type memFile struct{ *bytes.Reader }

func (memFile) Close() error { return nil }

// readBoth opens data as a table and drains a cached and a sequential
// iterator over it. An open error is reported as both iterators' error.
func readBoth(data []byte) (cached, seq []entry, cachedErr, seqErr error) {
	r, err := newReader(memFile{bytes.NewReader(data)}, int64(len(data)), nil)
	if err != nil {
		return nil, nil, err, err
	}
	defer r.Close()
	it := r.NewIterator()
	it.SeekToFirst()
	cached, cachedErr = drain(it)
	it = r.NewSeqIterator()
	it.SeekToFirst()
	seq, seqErr = drain(it)
	return cached, seq, cachedErr, seqErr
}
