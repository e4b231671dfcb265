package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

func TestApplyBatchBasics(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.ApplyBatch(telemetry.TSpan{}, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	batch := []Write{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("c"), Value: []byte("3")},
		{Key: []byte("b"), Delete: true},
	}
	if err := s.ApplyBatch(telemetry.TSpan{}, batch); err != nil {
		t.Fatal(err)
	}
	for _, kv := range []struct{ k, v string }{{"a", "1"}, {"c", "3"}} {
		got, ok, err := s.Get([]byte(kv.k))
		if err != nil || !ok || string(got) != kv.v {
			t.Fatalf("Get(%q) = %q,%v,%v", kv.k, got, ok, err)
		}
	}
	if _, ok, _ := s.Get([]byte("b")); ok {
		t.Fatal("in-batch delete did not shadow the preceding put")
	}
	st := s.Stats()
	if st.Puts != 3 || st.Deletes != 1 || st.BatchApplies != 1 {
		t.Fatalf("stats = %+v, want 3 puts, 1 delete, 1 batch apply", st)
	}
}

func TestApplyBatchRejectsEmptyKeyAtomically(t *testing.T) {
	s := openTest(t, Options{})
	batch := []Write{
		{Key: []byte("good"), Value: []byte("v")},
		{Key: nil, Value: []byte("v")},
	}
	if err := s.ApplyBatch(telemetry.TSpan{}, batch); !errors.Is(err, ErrBadKey) {
		t.Fatalf("batch with empty key: %v", err)
	}
	// Validation happens before the WAL append, so nothing landed.
	if _, ok, _ := s.Get([]byte("good")); ok {
		t.Fatal("rejected batch partially applied")
	}
}

func TestApplyBatchTelemetryAndWALGrouping(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncOnAppend, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const batches, perBatch = 5, 32
	for b := 0; b < batches; b++ {
		batch := make([]Write, perBatch)
		for i := range batch {
			batch[i] = Write{
				Key:   []byte(fmt.Sprintf("k-%02d-%03d", b, i)),
				Value: []byte("v"),
			}
		}
		if err := s.ApplyBatch(telemetry.TSpan{}, batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("lsm.batch_applies").Load(); got != batches {
		t.Fatalf("lsm.batch_applies = %d, want %d", got, batches)
	}
	if got := reg.Counter("wal.appends").Load(); got != batches*perBatch {
		t.Fatalf("wal.appends = %d, want %d records", got, batches*perBatch)
	}
	// One group append per batch means ~one fsync per batch, never one per
	// record (a lone writer gets exactly one per batch).
	if syncs := reg.Counter("wal.syncs").Load(); syncs > batches {
		t.Fatalf("wal.syncs = %d for %d batches; batch appends are not group-committed", syncs, batches)
	}
}

func TestApplyBatchAutoFlush(t *testing.T) {
	s := openTest(t, Options{MemtableSize: 4 << 10})
	big := bytes.Repeat([]byte{'x'}, 512)
	batch := make([]Write, 16) // 16 * (512+12) > 4 KiB: crosses the threshold
	for i := range batch {
		batch[i] = Write{Key: []byte(fmt.Sprintf("flush-key-%03d", i)), Value: big}
	}
	if err := s.ApplyBatch(telemetry.TSpan{}, batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // drain any in-flight rotation
		t.Fatal(err)
	}
	if s.Stats().Flushes == 0 {
		t.Fatal("batch crossing the memtable threshold never flushed")
	}
	for i := range batch {
		if _, ok, _ := s.Get(batch[i].Key); !ok {
			t.Fatalf("key %d lost across batch-triggered flush", i)
		}
	}
}

// TestBatchCrashRecoveryParity writes the same mutation sequence through
// ApplyBatch and through per-key Put/Delete, crashes both stores before any
// flush, and asserts WAL replay recovers identical contents: a batch is one
// group append on the wire but record-per-mutation for recovery.
func TestBatchCrashRecoveryParity(t *testing.T) {
	var ops []Write
	for i := 0; i < 200; i++ {
		ops = append(ops, Write{
			Key:   []byte(fmt.Sprintf("key-%03d", i%64)), // collisions: overwrites
			Value: []byte(fmt.Sprintf("val-%04d", i)),
		})
		if i%7 == 0 {
			ops = append(ops, Write{Key: []byte(fmt.Sprintf("key-%03d", (i+3)%64)), Delete: true})
		}
	}

	batchDir, keyDir := t.TempDir(), t.TempDir()
	open := func(dir string) *Store {
		s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	sb := open(batchDir)
	// Apply in batches of 16.
	for i := 0; i < len(ops); i += 16 {
		end := i + 16
		if end > len(ops) {
			end = len(ops)
		}
		if err := sb.ApplyBatch(telemetry.TSpan{}, ops[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	crashStore(t, sb)

	sk := open(keyDir)
	for _, w := range ops {
		var err error
		if w.Delete {
			err = sk.Delete(w.Key)
		} else {
			err = sk.Put(w.Key, w.Value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	crashStore(t, sk)

	rb, rk := open(batchDir), open(keyDir)
	defer rb.Close()
	defer rk.Close()
	collect := func(s *Store) map[string]string {
		out := map[string]string{}
		if err := scan(s, nil, nil, func(k, v []byte) error {
			out[string(k)] = string(v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := collect(rb), collect(rk)
	if len(got) != len(want) {
		t.Fatalf("batched path recovered %d keys, per-key path %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q: batched path recovered %q, per-key path %q", k, got[k], v)
		}
	}
}

// TestConcurrentApplyBatchScanCompact races batched writers against scans
// and forced compactions; run under -race it checks the single-critical-
// section apply publishes safely.
func TestConcurrentApplyBatchScanCompact(t *testing.T) {
	s := openTest(t, Options{MemtableSize: 16 << 10, CompactTrigger: 3})
	const writers, batchesPerWriter, batchSize = 3, 60, 24
	const totalWrites = writers * batchesPerWriter * batchSize

	var writeWG, auxWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			val := bytes.Repeat([]byte{'v'}, 128)
			for i := 0; i < batchesPerWriter; i++ {
				batch := make([]Write, batchSize)
				for j := range batch {
					batch[j] = Write{
						Key:   []byte(fmt.Sprintf("w%d-%04d-%02d", w, i, j)),
						Value: val,
					}
				}
				if err := s.ApplyBatch(telemetry.TSpan{}, batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := scan(s, nil, nil, func(k, v []byte) error { return nil }); err != nil {
				t.Errorf("scan: %v", err)
				return
			}
		}
	}()
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	writeWG.Wait()
	close(stop)
	auxWG.Wait()
	if t.Failed() {
		return
	}
	n := 0
	if err := scan(s, nil, nil, func(k, v []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != totalWrites {
		t.Fatalf("scan found %d keys, want %d", n, totalWrites)
	}
}
