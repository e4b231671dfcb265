package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

func buildTable(t testing.TB, path string, opts WriterOptions, kvs map[string]string) {
	t.Helper()
	w, err := NewWriter(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(kvs))
	for k := range kvs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := w.Add([]byte(k), []byte(kvs[k])); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
}

func seqKVs(n int) map[string]string {
	kvs := make(map[string]string, n)
	for i := 0; i < n; i++ {
		kvs[fmt.Sprintf("key-%06d", i)] = fmt.Sprintf("value-%06d", i)
	}
	return kvs
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	kvs := seqKVs(5000)
	buildTable(t, path, WriterOptions{}, kvs)

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if r.EntryCount() != uint64(len(kvs)) {
		t.Fatalf("EntryCount = %d, want %d", r.EntryCount(), len(kvs))
	}
	for k, v := range kvs {
		got, err := r.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("Get(%q) = %q, want %q", k, got, v)
		}
	}
}

func TestGetAbsentKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{}, seqKVs(1000))
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, k := range []string{"", "aaa", "key-000500x", "zzz"} {
		if _, err := r.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%q) error = %v, want ErrNotFound", k, err)
		}
	}
}

func TestIterationOrderComplete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	kvs := seqKVs(3000)
	buildTable(t, path, WriterOptions{BlockSize: 512}, kvs) // many blocks
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	it := r.NewIterator()
	it.SeekToFirst()
	count := 0
	var prev []byte
	for ; it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("unsorted: %q then %q", prev, it.Key())
		}
		want := kvs[string(it.Key())]
		if string(it.Value()) != want {
			t.Fatalf("value for %q = %q, want %q", it.Key(), it.Value(), want)
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if count != len(kvs) {
		t.Fatalf("iterated %d entries, want %d", count, len(kvs))
	}
}

func TestSeekSemantics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	kvs := map[string]string{}
	for i := 0; i < 1000; i += 2 { // even keys only
		kvs[fmt.Sprintf("k%06d", i)] = "v"
	}
	buildTable(t, path, WriterOptions{BlockSize: 256}, kvs)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	it := r.NewIterator()

	it.Seek([]byte("k000501")) // odd: lands on next even
	if !it.Valid() || string(it.Key()) != "k000502" {
		t.Fatalf("Seek between keys landed on %q", it.Key())
	}
	it.Seek([]byte("k000500")) // exact
	if !it.Valid() || string(it.Key()) != "k000500" {
		t.Fatalf("Seek exact landed on %q", it.Key())
	}
	it.Seek([]byte("")) // before first
	if !it.Valid() || string(it.Key()) != "k000000" {
		t.Fatalf("Seek before first landed on %q", it.Key())
	}
	it.Seek([]byte("zzz")) // past last
	if it.Valid() {
		t.Fatal("Seek past last should be invalid")
	}
}

func TestRangeScanAcrossBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	kvs := seqKVs(2000)
	buildTable(t, path, WriterOptions{BlockSize: 300}, kvs)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	lo, hi := []byte("key-000500"), []byte("key-001500")
	it := r.NewIterator()
	it.Seek(lo)
	count := 0
	for ; it.Valid() && bytes.Compare(it.Key(), hi) < 0; it.Next() {
		count++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Fatalf("range scan returned %d entries, want 1000", count)
	}
}

func TestBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{BlockSize: 128}, seqKVs(500))
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	first, last := r.Bounds()
	if string(first) != "key-000000" || string(last) != "key-000499" {
		t.Fatalf("Bounds = %q..%q", first, last)
	}
}

func TestOutOfOrderAddRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	w, err := NewWriter(path, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Add([]byte("b"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]byte("a"), []byte("2")); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order add: %v", err)
	}
	if err := w.Add([]byte("b"), []byte("dup")); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("duplicate add: %v", err)
	}
}

func TestEmptyTableRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	w, err := NewWriter(path, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); !errors.Is(err, ErrEmptyTable) {
		t.Fatalf("Finish on empty table: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("empty table file not removed")
	}
}

func TestAbortRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	w, err := NewWriter(path, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Add([]byte("k"), []byte("v"))
	w.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("aborted table file not removed")
	}
}

func TestCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{BlockSize: 256}, seqKVs(500))

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte early in the file (inside the first data block).
	data[16] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path) // footer and index are at the tail: still intact
	if err != nil {
		t.Skipf("corruption already caught at open: %v", err)
	}
	defer r.Close()
	it := r.NewIterator()
	it.SeekToFirst()
	for it.Valid() {
		it.Next()
	}
	if !errors.Is(it.Error(), ErrCorrupt) {
		t.Fatalf("iterator over corrupt block: %v", it.Error())
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{}, seqKVs(100))
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open truncated file: %v", err)
	}
}

func TestGarbageFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xab}, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open garbage file: %v", err)
	}
}

func TestNoBloomFilter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{BloomBitsPerKey: -1}, seqKVs(100))
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.MayContain([]byte("anything")) {
		t.Fatal("filterless table must answer maybe")
	}
	if _, err := r.Get([]byte("key-000050")); err != nil {
		t.Fatalf("Get without filter: %v", err)
	}
}

func TestBloomSkipsAbsent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{}, seqKVs(5000))
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	skipped := 0
	for i := 0; i < 1000; i++ {
		if !r.MayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			skipped++
		}
	}
	if skipped < 900 {
		t.Fatalf("bloom filter skipped only %d/1000 absent keys", skipped)
	}
}

func TestClosedReaderRejectsGet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{}, seqKVs(10))
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := r.Get([]byte("key-000001")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestBinaryKeysRoundTripProperty(t *testing.T) {
	f := func(raw [][]byte) bool {
		// Dedup and sort arbitrary binary keys.
		set := map[string]bool{}
		for _, k := range raw {
			set[string(k)] = true
		}
		delete(set, "") // writer requires non-empty progression from first add
		if len(set) == 0 {
			return true
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		path := filepath.Join(t.TempDir(), "p.sst")
		w, err := NewWriter(path, WriterOptions{BlockSize: 64})
		if err != nil {
			return false
		}
		for i, k := range keys {
			if err := w.Add([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
				w.Abort()
				return false
			}
		}
		if err := w.Finish(); err != nil {
			return false
		}
		r, err := Open(path)
		if err != nil {
			return false
		}
		defer r.Close()
		for i, k := range keys {
			got, err := r.Get([]byte(k))
			if err != nil || string(got) != fmt.Sprintf("v%d", i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func Test1KiBValuesManyBlocks(t *testing.T) {
	// Mirror the kvp shape: 1 KiB values, ordered time-series keys.
	path := filepath.Join(t.TempDir(), "t.sst")
	w, err := NewWriter(path, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'x'}, 1024)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := w.Add([]byte(fmt.Sprintf("PS\x00s1\x00%012d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	it := r.NewIterator()
	it.Seek([]byte(fmt.Sprintf("PS\x00s1\x00%012d", 500)))
	count := 0
	for ; it.Valid() && count < 100; it.Next() {
		if len(it.Value()) != 1024 {
			t.Fatalf("value length %d", len(it.Value()))
		}
		count++
	}
	if count != 100 {
		t.Fatalf("scanned %d entries, want 100", count)
	}
}

func BenchmarkWriter1KiB(b *testing.B) {
	path := filepath.Join(b.TempDir(), "b.sst")
	w, err := NewWriter(path, WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Add([]byte(fmt.Sprintf("key-%012d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Finish()
}

func BenchmarkReaderGet(b *testing.B) {
	path := filepath.Join(b.TempDir(), "b.sst")
	const n = 100000
	w, err := NewWriter(path, WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		w.Add([]byte(fmt.Sprintf("key-%012d", i)), []byte("value"))
	}
	if err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Get([]byte(fmt.Sprintf("key-%012d", i%n))); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHandleLengthOverflowRejected: a footer handle whose length wraps the
// offset+length+trailer sum must be refused as corrupt, not sized into a
// buffer.
func TestHandleLengthOverflowRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{}, seqKVs(100))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The index handle's length field: footer bytes 8..16.
	binary.LittleEndian.PutUint64(data[len(data)-footerLen+8:], ^uint64(0)-2)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := Open(path); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			r.Close()
		}
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}
