package hbase

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

func TestStorageReport(t *testing.T) {
	cl, c := newTestCluster(t, 3, nil)
	value := bytes.Repeat([]byte("v"), 512)
	const rows = 200
	for i := 0; i < rows; i++ {
		if err := c.Put([]byte(fmt.Sprintf("row%05d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	// Quorum-acked writes may still be catching up on the third replica;
	// byte accounting below assumes full convergence.
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for _, srv := range cl.Servers() {
		for _, r := range srv.Regions() {
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	rep := cl.Storage()
	if rep.Servers != 3 {
		t.Errorf("servers = %d, want 3", rep.Servers)
	}
	// One region, replication factor 3: three replica entries.
	if len(rep.Regions) != 3 {
		t.Fatalf("replica entries = %d, want 3", len(rep.Regions))
	}
	wantLogical := 3 * int64(rows*(len("row00000")+len(value)))
	if rep.Totals.LogicalBytes != wantLogical {
		t.Errorf("total logical bytes = %d, want %d (3 replicas)", rep.Totals.LogicalBytes, wantLogical)
	}
	if rep.WriteAmplification < 2 {
		t.Errorf("write amp = %.3f, want >= 2 after WAL + flush", rep.WriteAmplification)
	}
	for _, rs := range rep.Regions {
		if len(rs.Tables) == 0 {
			t.Errorf("replica %s@%d has no table stats after flush", rs.Region, rs.Server)
		}
	}
}

func TestHealthReport(t *testing.T) {
	cl, c := newTestCluster(t, 3, nil)
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	rep := cl.Health()
	if !rep.OK {
		t.Fatalf("live cluster unhealthy: %+v", rep)
	}
	if rep.Regions != 3 {
		t.Errorf("replicas = %d, want 3", rep.Regions)
	}
	if len(rep.Unhealthy) != 0 {
		t.Errorf("unhealthy list = %v, want empty", rep.Unhealthy)
	}
}

// TestStorageEndpointsUnderLoad scrapes /storage and /healthz repeatedly
// while writers ingest and forced flush+compaction churns every replica —
// the introspection surface must stay consistent under the race detector.
func TestStorageEndpointsUnderLoad(t *testing.T) {
	cl, err := NewCluster(Config{
		Nodes:   3,
		DataDir: t.TempDir(),
		Store: lsm.Options{
			WALSync:      wal.SyncNever,
			MemtableSize: 64 << 10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	telemetry.MountJSON(mux, "/storage", func() any { return cl.Storage() })
	telemetry.MountHealth(mux, "/healthz", func() (any, bool) {
		h := cl.Health()
		return h, h.OK
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var wg sync.WaitGroup
	value := bytes.Repeat([]byte("v"), 1024)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := cl.NewClient("iot", 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 300; i++ {
				if err := c.Put([]byte(fmt.Sprintf("w%d-%05d", w, i)), value); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			for _, s := range cl.Servers() {
				for _, r := range s.Regions() {
					r.Flush()
					r.Store().Compact()
				}
			}
		}
	}()

	scrape := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	for i := 0; i < 20; i++ {
		code, body := scrape("/storage")
		if code != http.StatusOK {
			t.Fatalf("/storage status %d", code)
		}
		var st StorageReport
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("/storage not valid JSON: %v", err)
		}
		if st.Servers != 3 || len(st.Regions) != 3 {
			t.Fatalf("/storage shape: servers=%d regions=%d", st.Servers, len(st.Regions))
		}
		code, body = scrape("/healthz")
		var h HealthReport
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("/healthz not valid JSON: %v", err)
		}
		// Backpressure can legitimately stall a replica mid-churn; the
		// status code just has to agree with the document.
		if h.OK != (code == http.StatusOK) {
			t.Fatalf("/healthz status %d disagrees with ok=%v", code, h.OK)
		}
	}
	wg.Wait()

	// After the dust settles the cluster must be healthy and the ledger
	// must reflect both writers on every replica. Quorum acks do not wait
	// for the third replica, so drain its catch-up queue first.
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if rep := cl.Health(); !rep.OK {
		t.Errorf("post-load health: %+v", rep)
	}
	st := cl.Storage()
	wantLogical := 3 * int64(2*300*(len("w0-00000")+len(value)))
	if st.Totals.LogicalBytes != wantLogical {
		t.Errorf("total logical bytes = %d, want %d", st.Totals.LogicalBytes, wantLogical)
	}
}
