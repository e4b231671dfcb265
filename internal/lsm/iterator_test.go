package lsm

import (
	"fmt"
	"sync"
	"testing"
)

func openIterStore(t *testing.T, opts Options) *Store {
	t.Helper()
	opts.Dir = t.TempDir()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func iterKeys(t *testing.T, it *Iter) []string {
	t.Helper()
	var keys []string
	for ; it.Valid(); it.Next() {
		keys = append(keys, string(it.Key()))
	}
	if err := it.Error(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	return keys
}

// scan drains a NewIterator over [lo, hi), calling fn for each live entry.
func scan(s *Store, lo, hi []byte, fn func(k, v []byte) error) error {
	it, err := s.NewIterator(lo, hi)
	return drain(it, err, fn)
}

// drain calls fn for each live entry of a just-opened iterator and closes
// it, returning the first error from the open, fn or the iteration.
func drain(it *Iter, err error, fn func(k, v []byte) error) error {
	if err != nil {
		return err
	}
	defer it.Close()
	for ; it.Valid(); it.Next() {
		if err := fn(it.Key(), it.Value()); err != nil {
			return err
		}
	}
	return it.Error()
}

func TestIteratorStreamsLiveEntriesInRange(t *testing.T) {
	s := openIterStore(t, Options{DisableAutoFlush: true})
	for i := 0; i < 50; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Spread across a table file and the memtable, with a tombstone in range.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete([]byte("k042")); err != nil {
		t.Fatal(err)
	}

	it, err := s.NewIterator([]byte("k010"), []byte("k060"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	keys := iterKeys(t, it)
	if len(keys) != 49 { // k010..k059 minus deleted k042
		t.Fatalf("iterator returned %d keys, want 49", len(keys))
	}
	for _, k := range keys {
		if k == "k042" {
			t.Fatal("tombstoned key surfaced")
		}
	}
	if keys[0] != "k010" || keys[len(keys)-1] != "k059" {
		t.Fatalf("range bounds violated: first %q last %q", keys[0], keys[len(keys)-1])
	}
}

// TestIteratorSnapshotSurvivesFlushAndCompaction is the acceptance check:
// an iterator opened before a flush and a compaction still returns exactly
// the snapshot's rows — none missing, none duplicated — because it pins the
// memtable views and refcounted table handles captured at open.
func TestIteratorSnapshotSurvivesFlushAndCompaction(t *testing.T) {
	s := openIterStore(t, Options{DisableAutoFlush: true})
	const n = 200
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	it, err := s.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	// Drain half, then flush and compact underneath the open iterator, and
	// write rows the snapshot must not see.
	var got []string
	for i := 0; i < n/2 && it.Valid(); i++ {
		got = append(got, string(it.Key()))
		it.Next()
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("zzz-after-snapshot"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	got = append(got, iterKeys(t, it)...)

	if len(got) != n {
		t.Fatalf("snapshot returned %d rows, want %d", len(got), n)
	}
	seen := make(map[string]bool, len(got))
	for i, k := range got {
		if seen[k] {
			t.Fatalf("duplicated row %q", k)
		}
		seen[k] = true
		if want := fmt.Sprintf("k%04d", i); k != want {
			t.Fatalf("row %d = %q, want %q", i, k, want)
		}
	}
}

// TestIteratorConcurrentWithWritesAndMaintenance runs long-lived iterators
// against full-rate writes, flushes and compactions; under -race this is
// the scanner-vs-maintenance safety check at the engine layer.
func TestIteratorConcurrentWithWritesAndMaintenance(t *testing.T) {
	s := openIterStore(t, Options{MemtableSize: 8 << 10, CompactTrigger: 3})
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("seed%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Put([]byte(fmt.Sprintf("w%06d", i)), make([]byte, 256)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for round := 0; round < 20; round++ {
		it, err := s.NewIterator([]byte("seed"), []byte("seed~"))
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for ; it.Valid(); it.Next() {
			count++
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if count != 100 {
			t.Fatalf("round %d: snapshot saw %d seed rows, want 100", round, count)
		}
	}
	close(stop)
	wg.Wait()
}

func TestIteratorBadRangeAndClosedStore(t *testing.T) {
	s := openIterStore(t, Options{})
	if _, err := s.NewIterator([]byte("b"), []byte("a")); err != ErrBadRange {
		t.Fatalf("inverted range: %v", err)
	}
	it, err := s.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil { // double close is safe
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewIterator(nil, nil); err != ErrClosed {
		t.Fatalf("closed store: %v", err)
	}
}
