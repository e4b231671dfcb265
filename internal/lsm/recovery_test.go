package lsm

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"tpcxiot/internal/wal"
)

// crashStore simulates a crash: sync the WAL so the OS-level state is what
// a power loss after the last acknowledged write would leave, then abandon
// the store without flushing memtables or closing cleanly. A real crash
// also kills background flush/compaction goroutines; in-process they would
// keep mutating the directory under the reopened store, so quiesce them
// first — any maintenance pass is then a completed (valid) crash point.
func crashStore(t *testing.T, s *Store) {
	t.Helper()
	s.stopOnce.Do(func() { close(s.quit) }) // stop the background compactor
	s.bg.Wait()
	s.maintMu.Lock()
	s.maintMu.Unlock()
	s.compactMu.Lock()
	s.compactMu.Unlock()
	if err := s.log.Sync(); err != nil {
		t.Fatal(err)
	}
	s.log.Close() // release the file lock-equivalent so reopen works
	s.manifest.close()
}

// TestCrashRecoveryProperty: after any sequence of puts/deletes/explicit
// flushes followed by a crash, reopening the store yields exactly the
// model's state — nothing lost, nothing resurrected.
func TestCrashRecoveryProperty(t *testing.T) {
	type op struct {
		Del   bool
		Flush bool
		K, V  uint8
	}
	f := func(ops []op) bool {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key-%03d", o.K%32) // small keyspace: overwrites happen
			switch {
			case o.Flush:
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			case o.Del:
				if err := s.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			default:
				v := fmt.Sprintf("val-%03d", o.V)
				if err := s.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
		}
		crashStore(t, s)

		re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()

		// Point reads match the model.
		for k, v := range model {
			got, ok, err := re.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				t.Logf("lost %q after crash: %q,%v,%v", k, got, ok, err)
				return false
			}
		}
		// Scan yields exactly the model's keys in order.
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		i := 0
		scanOK := true
		err = scan(re, nil, nil, func(k, v []byte) error {
			if i >= len(want) || string(k) != want[i] || string(v) != model[want[i]] {
				scanOK = false
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return scanOK && i == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringHeavyIngest writes a realistic kvp-shaped stream with
// auto-flushes and compactions racing, crashes, and verifies the recovered
// store contains every acknowledged write.
func TestCrashDuringHeavyIngest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{
		Dir:            dir,
		WALSync:        wal.SyncNever,
		MemtableSize:   64 << 10, // force frequent flushes
		CompactTrigger: 3,
		MaxStoreFiles:  6,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	val := make([]byte, 512)
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("reading-%08d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	// Give in-flight background flushes a chance to finish, then crash.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	crashStore(t, s)

	re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	count := 0
	if err := scan(re, nil, nil, func(k, v []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("recovered %d of %d acknowledged writes", count, n)
	}
}
