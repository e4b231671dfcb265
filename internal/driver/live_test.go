package driver

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tpcxiot/internal/hbase"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
	"tpcxiot/internal/workload"
)

// TestCountRowsMatchesScan checks the stored-rows count against the rows a
// full scan returns, on a multi-region table holding overwrites and
// deletes, while every region store flushes and compacts in the
// background. The count folds server-side: it must open no scanner and
// stream no row.
func TestCountRowsMatchesScan(t *testing.T) {
	reg := telemetry.NewRegistry()
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:    3,
		DataDir:  t.TempDir(),
		Store:    lsm.Options{WALSync: wal.SyncNever, MemtableSize: 64 << 10},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	const drivers = 3
	sut, err := NewClusterSUT(cluster, drivers, 32<<10)
	if err != nil {
		t.Fatal(err)
	}

	client, err := cluster.NewClient(sut.table, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	value := bytes.Repeat([]byte("v"), 200)
	key := func(sub string, sensor, ts int) []byte {
		return kvp.Key{Substation: sub, Sensor: fmt.Sprintf("s%02d", sensor), Timestamp: int64(ts)}.Encode()
	}
	for _, sub := range workload.SubstationNames(drivers) {
		for sensor := 0; sensor < 4; sensor++ {
			for ts := 0; ts < 200; ts++ {
				if err := client.Put(key(sub, sensor, ts), value); err != nil {
					t.Fatal(err)
				}
			}
			for ts := 0; ts < 200; ts += 3 { // overwrites
				if err := client.Put(key(sub, sensor, ts), value[:50]); err != nil {
					t.Fatal(err)
				}
			}
			for ts := 1; ts < 200; ts += 7 { // deletes
				if err := client.Delete(key(sub, sensor, ts)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := client.FlushCommits(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, srv := range cluster.Servers() {
				for _, r := range srv.Regions() {
					select {
					case <-stop:
						return
					default:
					}
					if err := r.Flush(); err != nil {
						t.Error(err)
						return
					}
					if err := r.Store().Compact(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	opens, streamed := reg.Counter("hbase.scanner_opens"), reg.Counter("hbase.scan_rows_streamed")
	for round := 0; round < 3; round++ {
		o0, s0 := opens.Load(), streamed.Load()
		stored, err := sut.CountRows()
		if err != nil {
			t.Fatal(err)
		}
		if o, s := opens.Load(), streamed.Load(); o != o0 || s != s0 {
			t.Fatalf("round %d: count opened %d scanners and streamed %d rows, want none", round, o-o0, s-s0)
		}
		rows, err := client.Scan(nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if stored != int64(len(rows)) {
			t.Fatalf("round %d: CountRows = %d, full scan returned %d rows", round, stored, len(rows))
		}
		if want := int64(drivers * 4 * (200 - 29)); stored != want {
			t.Fatalf("round %d: CountRows = %d, want %d live readings", round, stored, want)
		}
	}
}
