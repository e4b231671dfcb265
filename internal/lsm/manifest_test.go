package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tpcxiot/internal/wal"
)

// currentManifestPath resolves the live manifest file via CURRENT.
func currentManifestPath(t *testing.T, dir string) string {
	t.Helper()
	cur, err := os.ReadFile(filepath.Join(dir, currentName))
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, strings.TrimSpace(string(cur)))
}

// TestManifestAuthoritativeAfterCompactionCrash simulates a crash between the
// compaction's manifest commit and the unlink of its input files: the inputs
// reappear on disk but the manifest no longer references them. Recovery must
// trust the manifest — the resurrected inputs are orphans to remove, and a
// tombstone the compaction dropped must not come back to life through them.
func TestManifestAuthoritativeAfterCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: doomed holds a value; table 2: its tombstone.
	if err := s.Put([]byte("doomed"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("kept"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Stash the two input tables, compact (dropping the tombstone AND the
	// shadowed value), then put the inputs back: the on-disk state of a crash
	// after the manifest commit but before the input unlink.
	var stash = map[string][]byte{}
	for _, ts := range s.TableStats() {
		data, err := os.ReadFile(ts.Path)
		if err != nil {
			t.Fatal(err)
		}
		stash[ts.Path] = data
	}
	if len(stash) != 2 {
		t.Fatalf("expected 2 input tables, have %d", len(stash))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Tables; got != 1 {
		t.Fatalf("tables after full compaction = %d, want 1", got)
	}
	crashStore(t, s)
	for path, data := range stash {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, err := re.Get([]byte("doomed")); err != nil || ok {
		t.Fatalf("deleted key resurrected through orphaned compaction input: ok=%v err=%v", ok, err)
	}
	if v, ok, err := re.Get([]byte("kept")); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Get(kept) = %q,%v,%v", v, ok, err)
	}
	for path := range stash {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("orphaned compaction input %s not removed at open", filepath.Base(path))
		}
	}
}

// TestRecoveryCleansTempAndSupersededFiles: .tmp residue and manifests CURRENT
// no longer points at are swept at open, and an orphan .sst id advances the id
// allocator so a new table never reuses a name that held different bytes.
func TestRecoveryCleansTempAndSupersededFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	live := s.TableStats()[0].Path
	crashStore(t, s)

	// Fabricate interrupted-transition residue: a partial table write, a
	// stale manifest, and a flushed-but-never-committed table (copy of the
	// live one under a higher id).
	tmp := filepath.Join(dir, "000000000099.sst"+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, manifestName(0))
	if err := os.WriteFile(stale, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	const orphanID = 42
	orphan := filepath.Join(dir, fmt.Sprintf("%012d.sst", orphanID))
	if err := os.WriteFile(orphan, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, path := range []string{tmp, stale, orphan} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s survived recovery", filepath.Base(path))
		}
	}
	if v, ok, err := re.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get(k) = %q,%v,%v", v, ok, err)
	}
	// The next flush must allocate past the orphan's id.
	if err := re.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if id := re.TableStats()[0].ID; id <= orphanID {
		t.Fatalf("new table id %d reuses the orphaned id space (orphan was %d)", id, orphanID)
	}
}

// TestManifestTornTailTruncated: a crash mid-append leaves a partial record at
// the manifest tail; recovery truncates it and the store keeps working.
func TestManifestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	crashStore(t, s)

	man := currentManifestPath(t, dir)
	f, err := os.OpenFile(man, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A length prefix promising more bytes than follow: a torn append.
	if _, err := f.Write([]byte{0xc0, 0x08, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatalf("open with torn manifest tail: %v", err)
	}
	defer re.Close()
	for i := 0; i < 3; i++ {
		if v, ok, err := re.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || !ok || string(v) != "v" {
			t.Fatalf("Get(k%d) = %q,%v,%v after torn-tail recovery", i, v, ok, err)
		}
	}
	// The truncated manifest must accept new commits.
	if err := re.Put([]byte("post"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestManifestlessDirectoryRefused: a directory holding tables but no
// CURRENT was not written by this store. Open refuses it with ErrCorrupt
// and leaves every file in place.
func TestManifestlessDirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, currentName)); err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		var names []string
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			names = append(names, path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := listing()

	if re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever}); !errors.Is(err, ErrCorrupt) {
		if re != nil {
			re.Close()
		}
		t.Fatalf("open of a directory with tables but no CURRENT: err = %v, want ErrCorrupt", err)
	}
	if after := listing(); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused open changed the directory:\nbefore %v\nafter  %v", before, after)
	}
}

// TestManifestRotationBoundsRecoveryCost: after far more edits than the
// rotation threshold, the directory holds exactly one manifest file whose
// replay yields the live table set — recovery cost tracks live tables, not
// store history.
func TestManifestRotationBoundsRecoveryCost(t *testing.T) {
	dir := t.TempDir()
	m := &manifest{dir: dir}
	if err := m.bootstrap(); err != nil {
		t.Fatal(err)
	}
	// Churn: add table i, delete table i-1. Live set at any point is one id.
	live := []tableMeta{}
	for i := uint64(1); i <= 3*manifestRotateEvery; i++ {
		edit := manifestEdit{Added: []tableMeta{{ID: i, Size: int64(i)}}}
		if i > 1 {
			edit.Deleted = []uint64{i - 1}
		}
		if err := m.logEdit(edit, live); err != nil {
			t.Fatal(err)
		}
		live = []tableMeta{{ID: i, Size: int64(i)}}
	}
	if err := m.close(); err != nil {
		t.Fatal(err)
	}

	matches, err := filepath.Glob(filepath.Join(dir, manifestPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("%d manifest files after churn, want 1 (rotation broken)", len(matches))
	}
	re, liveSet, err := openManifest(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	if len(liveSet) != 1 {
		t.Fatalf("replayed live set has %d tables, want 1", len(liveSet))
	}
	want := uint64(3 * manifestRotateEvery)
	if _, ok := liveSet[want]; !ok {
		t.Fatalf("replayed live set %v missing table %d", liveSet, want)
	}
}
