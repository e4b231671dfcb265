package region

import (
	"errors"
	"fmt"
	"testing"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

func testOpts() lsm.Options {
	return lsm.Options{WALSync: wal.SyncNever}
}

func openRegion(t *testing.T, start, end []byte) *Region {
	t.Helper()
	r, err := Open(Info{Table: "iot", Name: "iot-test", StartKey: start, EndKey: end},
		t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestContains(t *testing.T) {
	cases := []struct {
		start, end string
		key        string
		want       bool
	}{
		{"", "", "anything", true}, // unbounded
		{"b", "", "a", false},      // below start
		{"b", "", "b", true},       // at start (inclusive)
		{"", "m", "m", false},      // at end (exclusive)
		{"", "m", "lzz", true},     // just below end
		{"b", "m", "f", true},      // inside
		{"b", "m", "z", false},     // above end
	}
	for _, tc := range cases {
		var start, end []byte
		if tc.start != "" {
			start = []byte(tc.start)
		}
		if tc.end != "" {
			end = []byte(tc.end)
		}
		in := Info{StartKey: start, EndKey: end}
		if got := in.Contains([]byte(tc.key)); got != tc.want {
			t.Errorf("Contains(%q) in [%q,%q) = %v, want %v", tc.key, tc.start, tc.end, got, tc.want)
		}
	}
}

func TestBoundsEnforced(t *testing.T) {
	r := openRegion(t, []byte("b"), []byte("m"))
	if err := r.Put([]byte("z"), []byte("v")); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Put outside bounds: %v", err)
	}
	if err := r.Delete([]byte("a")); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Delete outside bounds: %v", err)
	}
	if _, _, err := r.Get([]byte("z")); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Get outside bounds: %v", err)
	}
	if err := r.Put([]byte("f"), []byte("v")); err != nil {
		t.Fatalf("Put inside bounds: %v", err)
	}
	v, ok, err := r.Get([]byte("f"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get inside bounds = %q,%v,%v", v, ok, err)
	}
}

func TestScanClipsToBounds(t *testing.T) {
	r := openRegion(t, []byte("k100"), []byte("k200"))
	for i := 100; i < 200; i++ {
		if err := r.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A scan wider than the region must be clipped, not error.
	if count := countRange(t, r, nil, nil); count != 100 {
		t.Fatalf("unbounded scan returned %d, want 100", count)
	}
	if count := countRange(t, r, []byte("k000"), []byte("k150")); count != 50 {
		t.Fatalf("clipped scan returned %d, want 50", count)
	}
}

// countRange drains a region iterator over [lo, hi) and returns how many
// live entries it yielded.
func countRange(t *testing.T, r *Region, lo, hi []byte) int {
	t.Helper()
	it, err := r.NewIterator(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	for ; it.Valid(); it.Next() {
		count++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	return count
}

func TestDestroy(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Info{Table: "iot", Name: "gone"}, dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	r.Put([]byte("k"), []byte("v"))
	if err := r.Destroy(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Info{Table: "iot", Name: "gone"}, dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok, _ := r2.Get([]byte("k")); ok {
		t.Fatal("destroyed region retained data")
	}
}

func TestApplyBatchBoundsCheckedBeforeApply(t *testing.T) {
	r := openRegion(t, []byte("b"), []byte("m"))
	good := []lsm.Write{
		{Key: []byte("banana"), Value: []byte("1")},
		{Key: []byte("grape"), Value: []byte("2")},
		{Key: []byte("fig"), Delete: true},
	}
	if err := r.ApplyBatch(telemetry.TSpan{}, good); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := r.Get([]byte("grape")); err != nil || !ok || string(v) != "2" {
		t.Fatalf("Get(grape) = %q,%v,%v", v, ok, err)
	}

	// One out-of-range key rejects the whole batch before anything applies.
	bad := []lsm.Write{
		{Key: []byte("cherry"), Value: []byte("in")},
		{Key: []byte("zebra"), Value: []byte("out")},
	}
	if err := r.ApplyBatch(telemetry.TSpan{}, bad); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range batch: %v", err)
	}
	if _, ok, _ := r.Get([]byte("cherry")); ok {
		t.Fatal("rejected batch partially applied")
	}
}
