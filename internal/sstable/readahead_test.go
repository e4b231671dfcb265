package sstable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// entry is one key-value pair copied out of an iterator.
type entry struct{ key, value string }

// drain copies every entry from the iterator's current position to the end.
func drain(it *Iterator) ([]entry, error) {
	var out []entry
	for ; it.Valid(); it.Next() {
		out = append(out, entry{string(it.Key()), string(it.Value())})
	}
	return out, it.Error()
}

// checkSameFrom positions a cached and a sequential iterator with pos and
// requires identical entries to the end of the table; it returns how many.
func checkSameFrom(t *testing.T, r *Reader, pos func(*Iterator)) int {
	t.Helper()
	cached, seq := r.NewIterator(), r.NewSeqIterator()
	pos(cached)
	pos(seq)
	want, err := drain(cached)
	if err != nil {
		t.Fatalf("cached iterator: %v", err)
	}
	got, err := drain(seq)
	if err != nil {
		t.Fatalf("sequential iterator: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("sequential iterator yielded %d entries, cached %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: sequential %q=%q, cached %q=%q",
				i, got[i].key, got[i].value, want[i].key, want[i].value)
		}
	}
	return len(want)
}

// dataBlockBytes sums the stored size (payload plus trailer) of every data
// block the index names.
func dataBlockBytes(t *testing.T, r *Reader) uint64 {
	t.Helper()
	ix := r.index.iter()
	var sum uint64
	for ix.seekToFirst(); ix.valid; ix.next() {
		h, err := indexHandle(ix.value)
		if err != nil {
			t.Fatal(err)
		}
		sum += h.length + trailerLen
	}
	return sum
}

func TestSeqIteratorMatchesCached(t *testing.T) {
	// 1 KiB values over ~2.5 MB of data: many windows, with blocks
	// straddling every window boundary.
	kvs := make(map[string]string, 2500)
	pad := strings.Repeat("temperature=23.5C ", 57)
	for i := 0; i < 2500; i++ {
		kvs[fmt.Sprintf("key-%06d", i)] = fmt.Sprintf("%06d%s", i, pad)
	}
	for _, c := range []Compression{NoCompression, FlateCompression} {
		t.Run(c.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.sst")
			buildTable(t, path, WriterOptions{Compression: c}, kvs)
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if n := checkSameFrom(t, r, (*Iterator).SeekToFirst); n != len(kvs) {
				t.Fatalf("full pass yielded %d entries, want %d", n, len(kvs))
			}
			// Seek into the middle, and onto a key between two entries.
			if n := checkSameFrom(t, r, func(it *Iterator) { it.Seek([]byte("key-001234")) }); n != 2500-1234 {
				t.Fatalf("seek to key-001234 yielded %d entries, want %d", n, 2500-1234)
			}
			if n := checkSameFrom(t, r, func(it *Iterator) { it.Seek([]byte("key-001234x")) }); n != 2500-1235 {
				t.Fatalf("seek between keys yielded %d entries, want %d", n, 2500-1235)
			}
			// An empty range: past the last key.
			if n := checkSameFrom(t, r, func(it *Iterator) { it.Seek([]byte("zzz")) }); n != 0 {
				t.Fatalf("seek past the end yielded %d entries", n)
			}
		})
	}
}

func TestSeqIteratorBlockLargerThanWindow(t *testing.T) {
	kvs := seqKVs(300)
	kvs["key-000150"] = strings.Repeat("x", readAheadBytes+100<<10)
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{}, kvs)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := checkSameFrom(t, r, (*Iterator).SeekToFirst); n != len(kvs) {
		t.Fatalf("full pass yielded %d entries, want %d", n, len(kvs))
	}
	seq := r.NewSeqIterator()
	seq.SeekToFirst()
	if _, err := drain(seq); err != nil {
		t.Fatal(err)
	}
	if got, want := uint64(seq.DiskReadBytes()), dataBlockBytes(t, r); got != want {
		t.Fatalf("read %d bytes, data blocks hold %d", got, want)
	}
}

// TestSeqIteratorReadsOnlyDataRegion: a full pass reads exactly the data
// blocks once each, and nothing past them — the file is cut at the end of
// the data region after open, so any read of the filter, index or footer
// would fail.
func TestSeqIteratorReadsOnlyDataRegion(t *testing.T) {
	kvs := make(map[string]string, 3000)
	for i := 0; i < 3000; i++ {
		kvs[fmt.Sprintf("key-%06d", i)] = strings.Repeat("v", 300+i%500)
	}
	for _, c := range []Compression{NoCompression, FlateCompression} {
		t.Run(c.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.sst")
			buildTable(t, path, WriterOptions{Compression: c}, kvs)
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sum := dataBlockBytes(t, r)
			if sum != r.dataEnd {
				t.Fatalf("data blocks hold %d bytes, data region ends at %d", sum, r.dataEnd)
			}
			if err := os.Truncate(path, int64(r.dataEnd)); err != nil {
				t.Fatal(err)
			}
			seq := r.NewSeqIterator()
			seq.SeekToFirst()
			got, err := drain(seq)
			if err != nil {
				t.Fatalf("full pass over the data region: %v", err)
			}
			if len(got) != len(kvs) {
				t.Fatalf("full pass yielded %d entries, want %d", len(got), len(kvs))
			}
			if uint64(seq.DiskReadBytes()) != sum {
				t.Fatalf("read %d bytes for %d bytes of data blocks", seq.DiskReadBytes(), sum)
			}
		})
	}
}

func TestSeqIteratorBypassesCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{}, seqKVs(20000))
	cache := NewBlockCache(0)
	r, err := OpenWithCache(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	before := cache.Stats()
	seq := r.NewSeqIterator()
	seq.SeekToFirst()
	got, err := drain(seq)
	if err != nil || len(got) != 20000 {
		t.Fatalf("full pass: %d entries, err %v", len(got), err)
	}
	if after := cache.Stats(); after != before {
		t.Fatalf("cache stats moved over a sequential pass: %+v -> %+v", before, after)
	}
	if seq.DiskReadBytes() == 0 {
		t.Fatal("sequential pass reported no disk reads")
	}
}

func TestSeqIteratorDetectsCorruption(t *testing.T) {
	for _, c := range []Compression{NoCompression, FlateCompression} {
		t.Run(c.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.sst")
			buildTable(t, path, WriterOptions{Compression: c}, compressibleKVs(2000))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// A byte in the middle of the data region, away from the first
			// block that Open reads.
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			mid := r.dataEnd / 2
			r.Close()
			data[mid] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err = Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			seq := r.NewSeqIterator()
			seq.SeekToFirst()
			if _, err := drain(seq); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flipped byte at %d: sequential pass error %v, want ErrCorrupt", mid, err)
			}
			cached := r.NewIterator()
			cached.SeekToFirst()
			if _, err := drain(cached); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flipped byte at %d: cached pass error %v, want ErrCorrupt", mid, err)
			}
		})
	}
}

func TestSeqIteratorTruncatedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{}, seqKVs(20000))
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Cut the file inside the data region under the open reader: the pass
	// must stop with an error, never panic or yield a torn entry.
	if err := os.Truncate(path, int64(r.dataEnd/2)); err != nil {
		t.Fatal(err)
	}
	seq := r.NewSeqIterator()
	seq.SeekToFirst()
	got, err := drain(seq)
	if err == nil {
		t.Fatalf("pass over a truncated file succeeded with %d entries", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("key-%06d", i); e.key != want {
			t.Fatalf("entry %d before the error is %q, want %q", i, e.key, want)
		}
	}
	// And a file truncated before open is refused outright.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.sst")
	if err := os.WriteFile(cut, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if r2, err := Open(cut); err == nil {
		r2.Close()
		t.Fatal("opened a truncated table")
	}
}
