package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tpcxiot/internal/telemetry"
)

func openTest(t *testing.T, opts Options) *Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Sync == SyncOnAppend {
		opts.Sync = SyncNever // keep tests fast; durability tested explicitly
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func replayAll(t *testing.T, dir string) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := Replay(dir, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, r := range want {
		if err := l.Append(telemetry.TSpan{}, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendGroup(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	if err := l.Append(telemetry.TSpan{}, []byte("a"), []byte("b"), []byte("c")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := replayAll(t, dir); len(got) != 3 {
		t.Fatalf("group append replayed %d records, want 3", len(got))
	}
}

func TestEmptyRecord(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	if err := l.Append(telemetry.TSpan{}, []byte{}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got := replayAll(t, dir)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty record mishandled: %v", got)
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, SegmentSize: 1024})
	rec := make([]byte, 300)
	for i := 0; i < 10; i++ {
		if err := l.Append(telemetry.TSpan{}, rec); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentCount() < 2 {
		t.Fatalf("expected rotation, have %d segments", l.SegmentCount())
	}
	l.Close()
	if got := replayAll(t, dir); len(got) != 10 {
		t.Fatalf("replayed %d records across segments, want 10", len(got))
	}
}

func TestTruncateRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, SegmentSize: 1024})
	rec := make([]byte, 500)
	for i := 0; i < 8; i++ {
		if err := l.Append(telemetry.TSpan{}, rec); err != nil {
			t.Fatal(err)
		}
	}
	before := l.SegmentCount()
	active := l.ActiveSegment()
	if err := l.Truncate(active); err != nil {
		t.Fatal(err)
	}
	if l.SegmentCount() >= before {
		t.Fatalf("truncate kept %d of %d segments", l.SegmentCount(), before)
	}
	// Replay must still work over the surviving tail.
	l.Close()
	if err := Replay(dir, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	l.Append(telemetry.TSpan{}, []byte("first"))
	l.Close()

	l2 := openTest(t, Options{Dir: dir})
	l2.Append(telemetry.TSpan{}, []byte("second"))
	l2.Close()

	got := replayAll(t, dir)
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("replay after reopen: %q", got)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	l.Append(telemetry.TSpan{}, []byte("intact"))
	l.Append(telemetry.TSpan{}, []byte("to-be-torn"))
	l.Close()

	// Chop the final record mid-body to simulate a torn write.
	seg := filepath.Join(dir, segmentName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-4); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, dir)
	if len(got) != 1 || string(got[0]) != "intact" {
		t.Fatalf("torn-tail replay = %q, want just [intact]", got)
	}
}

func TestMidSegmentCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, SegmentSize: 1024})
	rec := make([]byte, 400)
	for i := 0; i < 6; i++ { // spans multiple segments
		l.Append(telemetry.TSpan{}, rec)
	}
	l.Close()

	// Flip a byte in the body of the first record of the FIRST segment
	// (not the last): replay must fail loudly.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = Replay(dir, func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay error = %v, want ErrCorrupt", err)
	}
}

func TestCorruptTailOfLastSegmentTolerated(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	l.Append(telemetry.TSpan{}, []byte("good"))
	l.Append(telemetry.TSpan{}, []byte("bad-tail"))
	l.Close()

	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	os.WriteFile(seg, data, 0o644)

	got := replayAll(t, dir)
	if len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("corrupt-tail replay = %q", got)
	}
}

func TestReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	l.Append(telemetry.TSpan{}, []byte("x"))
	l.Close()
	sentinel := errors.New("stop")
	if err := Replay(dir, func([]byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

func TestReplayMissingDir(t *testing.T) {
	if err := Replay(filepath.Join(t.TempDir(), "absent"), func([]byte) error { return nil }); err != nil {
		t.Fatalf("replay of missing dir: %v", err)
	}
}

func TestClosedLogRejectsOps(t *testing.T) {
	l := openTest(t, Options{})
	l.Close()
	if err := l.Append(telemetry.TSpan{}, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	l := openTest(t, Options{})
	defer l.Close()
	if err := l.Append(telemetry.TSpan{}, make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize append: %v", err)
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := Open(Options{}); !errors.Is(err, ErrBadOption) {
		t.Fatalf("missing dir: %v", err)
	}
	if _, err := Open(Options{Dir: t.TempDir(), SegmentSize: 10}); !errors.Is(err, ErrBadOption) {
		t.Fatalf("tiny segment: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, SegmentSize: 64 << 10})
	const workers = 8
	const per = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(telemetry.TSpan{}, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	if got := replayAll(t, dir); len(got) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(got), workers*per)
	}
}

func TestSyncOnAppendDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOnAppend})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(telemetry.TSpan{}, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	// Without closing, the record must already be on disk (flushed through
	// the bufio layer at minimum).
	got := replayAll(t, dir)
	if len(got) != 1 || string(got[0]) != "durable" {
		t.Fatalf("record not durable before close: %q", got)
	}
	l.Close()
}

func BenchmarkAppend1KiB(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(telemetry.TSpan{}, rec); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGroupCommitSharesSyncs(t *testing.T) {
	// Deterministic leader/follower scenario: hold syncMu as a fake
	// in-flight leader, let followers append and queue behind it, cover
	// their offsets, then release — every follower must return without an
	// fsync of its own. (A purely concurrent version is timing-dependent:
	// on fast filesystems fsync completes before a cohort can form.)
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOnAppend})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	l.syncMu.Lock() // fake in-flight leader
	const followers = 3
	done := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func(i int) {
			done <- l.Append(telemetry.TSpan{}, []byte(fmt.Sprintf("follower-%d", i)))
		}(i)
	}
	// Wait until every follower has written its record and is blocked on
	// the sync.
	for {
		l.mu.Lock()
		appended := l.appended
		l.mu.Unlock()
		if appended >= int64(followers)*(headerLen+int64(len("follower-0"))) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// The "leader" makes everything durable and publishes the offset.
	l.mu.Lock()
	if err := l.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.f.Sync(); err != nil {
		t.Fatal(err)
	}
	l.synced.Store(l.appended)
	l.mu.Unlock()
	l.syncMu.Unlock()

	for i := 0; i < followers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	_, shared := l.GroupCommitStats()
	if shared != followers {
		t.Fatalf("shared = %d, want %d (all followers covered by the leader)", shared, followers)
	}
	// Durability: everything replays.
	l.Close()
	count := 0
	if err := Replay(dir, func([]byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != followers {
		t.Fatalf("replayed %d of %d records", count, followers)
	}
}

func TestGroupCommitSingleWriterSyncsEachAppend(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Sync: SyncOnAppend})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 20; i++ {
		if err := l.Append(telemetry.TSpan{}, []byte("solo")); err != nil {
			t.Fatal(err)
		}
	}
	syncs, shared := l.GroupCommitStats()
	if shared != 0 {
		t.Fatalf("solo writer shared %d syncs", shared)
	}
	if syncs != 20 {
		t.Fatalf("solo writer performed %d syncs for 20 appends", syncs)
	}
}

func TestGroupCommitAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOnAppend, SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 300)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := l.Append(telemetry.TSpan{}, rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if l.SegmentCount() < 2 {
		t.Fatal("no rotation occurred")
	}
	l.Close()
	count := 0
	if err := Replay(dir, func([]byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 120 {
		t.Fatalf("replayed %d of 120 records across rotations", count)
	}
}

// BenchmarkGroupCommit measures durable append throughput as concurrency
// grows: group commit should lift aggregate throughput well above a single
// writer's fsync-bound rate.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			l, err := Open(Options{Dir: b.TempDir(), Sync: SyncOnAppend})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			rec := make([]byte, 1024)
			b.SetBytes(1024)
			b.SetParallelism(writers)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := l.Append(telemetry.TSpan{}, rec); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
