package workload

import (
	"testing"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/wal"
	"tpcxiot/internal/ycsb"
)

func TestStoreBindingEndToEnd(t *testing.T) {
	s, err := lsm.Open(lsm.Options{Dir: t.TempDir(), WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Millisecond)
	inst, err := NewInstance(InstanceConfig{
		Substation: "substation-00000",
		Readings:   4_000,
		Seed:       9,
		Now:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ycsb.Run(ycsb.RunConfig{Threads: 2}, StoreBinding(s), inst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops[ycsb.OpInsert] != 4_000 {
		t.Fatalf("inserted %d", rep.Ops[ycsb.OpInsert])
	}
	if inst.Stats().Queries == 0 {
		t.Fatal("no queries ran against the embedded store")
	}
	// Everything readable directly from the store.
	rows, err := collect(storeDB{s}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4_000 {
		t.Fatalf("store holds %d rows", len(rows))
	}
}

func TestStoreBindingScanLimit(t *testing.T) {
	s, err := lsm.Open(lsm.Options{Dir: t.TempDir(), WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, _ := StoreBinding(s)(0)
	for i := 0; i < 50; i++ {
		db.Insert([]byte{byte(i)}, []byte("v"))
	}
	rows, err := collect(db, nil, nil, 10)
	if err != nil || len(rows) != 10 {
		t.Fatalf("limited scan: %d rows, %v", len(rows), err)
	}
	rows, err = collect(db, []byte{5}, []byte{15}, 0)
	if err != nil || len(rows) != 10 {
		t.Fatalf("bounded scan: %d rows, %v", len(rows), err)
	}
}
