package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newTCPCluster(t *testing.T, nodes int, splits [][]byte) (*Cluster, *Client) {
	t.Helper()
	cl, err := NewCluster(testConfig(t, nodes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.CreateTable("iot", splits); err != nil {
		t.Fatal(err)
	}
	if err := cl.ServeTCP(); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewTCPClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return cl, c
}

func TestTCPRequiresServing(t *testing.T) {
	cl, err := NewCluster(testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.CreateTable("iot", nil)
	if _, err := cl.NewTCPClient("iot", 0); !errors.Is(err, ErrNoTCP) {
		t.Fatalf("TCP client before ServeTCP: %v", err)
	}
	if err := cl.ServeTCP(); err != nil {
		t.Fatal(err)
	}
	if err := cl.ServeTCP(); err != nil {
		t.Fatalf("idempotent ServeTCP: %v", err)
	}
	if addrs := cl.ServerAddrs(); len(addrs) != 3 {
		t.Fatalf("ServerAddrs = %v", addrs)
	}
}

func TestTCPPutGetDelete(t *testing.T) {
	_, c := newTCPCluster(t, 3, nil)
	if err := c.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get over TCP = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := c.Get([]byte("absent")); ok {
		t.Fatal("absent key present over TCP")
	}
	if err := c.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get([]byte("k1")); ok {
		t.Fatal("deleted key visible over TCP")
	}
}

func TestTCPScanAcrossRegions(t *testing.T) {
	splits := [][]byte{[]byte("k050"), []byte("k100")}
	_, c := newTCPCluster(t, 4, splits)
	for i := 0; i < 150; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{'v'}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := c.Scan([]byte("k025"), []byte("k125"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("TCP cross-region scan = %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if bytes.Compare(rows[i-1].Key, rows[i].Key) >= 0 {
			t.Fatal("TCP scan out of order")
		}
	}
	// Nil and empty bounds behave like the in-process client.
	all, err := c.Scan(nil, nil, 0)
	if err != nil || len(all) != 150 {
		t.Fatalf("unbounded TCP scan = %d rows, %v", len(all), err)
	}
	limited, err := c.Scan(nil, nil, 7)
	if err != nil || len(limited) != 7 {
		t.Fatalf("limited TCP scan = %d rows, %v", len(limited), err)
	}
}

func TestTCPParityWithInproc(t *testing.T) {
	cl, tcpClient := newTCPCluster(t, 3, [][]byte{[]byte("m")})
	inproc, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()

	// Writes through TCP are visible in-process and vice versa.
	if err := tcpClient.Put([]byte("from-tcp"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := inproc.Put([]byte("zz-from-inproc"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := inproc.Get([]byte("from-tcp")); !ok || string(v) != "1" {
		t.Fatal("in-process client cannot see TCP write")
	}
	if v, ok, _ := tcpClient.Get([]byte("zz-from-inproc")); !ok || string(v) != "2" {
		t.Fatal("TCP client cannot see in-process write")
	}
	a, err := tcpClient.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inproc.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("scan parity broken: %d vs %d rows", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			t.Fatalf("row %d differs between transports", i)
		}
	}
}

func TestTCPBatchedMutations(t *testing.T) {
	cl, _ := newTCPCluster(t, 3, nil)
	c, err := cl.NewTCPClient("iot", 8*1024)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	val := bytes.Repeat([]byte{'v'}, 512)
	for i := 0; i < 64; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	check, _ := cl.NewClient("iot", 0)
	rows, err := check.Scan(nil, nil, 0)
	if err != nil || len(rows) != 64 {
		t.Fatalf("batched TCP writes: %d rows, %v", len(rows), err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	cl, _ := newTCPCluster(t, 4, [][]byte{[]byte("c"), []byte("g")})
	const workers = 6
	const per = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := cl.NewTCPClient("iot", 4*1024)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("%c-%02d-%04d", 'a'+w, w, i))
				if err := c.Put(k, bytes.Repeat([]byte{'x'}, 64)); err != nil {
					t.Errorf("tcp put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c, _ := cl.NewClient("iot", 0)
	rows, err := c.Scan(nil, nil, 0)
	if err != nil || len(rows) != workers*per {
		t.Fatalf("concurrent TCP writes: %d rows, %v", len(rows), err)
	}
}

func TestTCPLargeValues(t *testing.T) {
	// Full 1 KiB kvp-sized values across the wire.
	_, c := newTCPCluster(t, 3, nil)
	val := bytes.Repeat([]byte{0xab}, 1024)
	for i := 0; i < 200; i++ {
		if err := c.Put([]byte(fmt.Sprintf("pair-%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := c.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !bytes.Equal(r.Value, val) {
			t.Fatal("value corrupted over the wire")
		}
	}
}

func TestTCPServerSideErrorKeepsConnection(t *testing.T) {
	// A server-side error (scan of a dropped region) must surface as an
	// error without poisoning the connection for subsequent requests.
	cl, c := newTCPCluster(t, 3, nil)
	c.Put([]byte("k"), []byte("v"))

	// Drop the table and recreate it under a DIFFERENT name: the old
	// client's routing entries now name regions no server knows, so its
	// reads must fail with a server-side error.
	if err := cl.DropTable("iot"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CreateTable("iot2", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get([]byte("k")); err == nil {
		t.Fatal("stale region read should fail")
	}
	// The same client's connection survives the error: a second request
	// over it gets a clean response too (another server-side error here).
	if _, err := c.Scan(nil, nil, 0); err == nil {
		t.Fatal("stale region scan should fail")
	}
	// A fresh client for the new table over the same listeners works.
	fresh, err := cl.NewTCPClient("iot2", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatalf("connection pool poisoned: %v", err)
	}
	if v, ok, err := fresh.Get([]byte("k2")); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("fresh client read: %q,%v,%v", v, ok, err)
	}
}

func TestClusterCloseStopsTCP(t *testing.T) {
	cl, c := newTCPCluster(t, 3, nil)
	c.Put([]byte("k"), []byte("v"))
	cl.Close()
	if _, err := cl.NewTCPClient("iot", 0); err == nil {
		t.Fatal("TCP client creatable after close")
	}
}

func TestWireFormatRoundTrip(t *testing.T) {
	var fw frameWriter
	fw.reset(opScanOpen)
	fw.str("region-name")
	fw.optBytes(nil)
	fw.optBytes([]byte{})
	fw.optBytes([]byte("bound"))
	fw.uvarint(12345)
	fw.bytes([]byte("payload"))

	var buf bytes.Buffer
	if err := fw.flush(&buf); err != nil {
		t.Fatal(err)
	}
	var fr frameReader
	if err := fr.readFrame(&buf); err != nil {
		t.Fatal(err)
	}
	if fr.op != opScanOpen {
		t.Fatalf("op = %d", fr.op)
	}
	if s := fr.str(); s != "region-name" {
		t.Fatalf("str = %q", s)
	}
	if b := fr.optBytes(); b != nil {
		t.Fatalf("nil optional = %v", b)
	}
	if b := fr.optBytes(); b == nil || len(b) != 0 {
		t.Fatalf("empty optional = %v", b)
	}
	if b := fr.optBytes(); string(b) != "bound" {
		t.Fatalf("bound optional = %q", b)
	}
	if v := fr.uvarint(); v != 12345 {
		t.Fatalf("uvarint = %d", v)
	}
	if b := fr.bytes(); string(b) != "payload" {
		t.Fatalf("bytes = %q", b)
	}
	if fr.err != nil {
		t.Fatal(fr.err)
	}
}

func TestWireFormatRejectsGarbage(t *testing.T) {
	var fr frameReader
	// Oversized frame length.
	junk := []byte{0xff, 0xff, 0xff, 0xff, 0x01}
	if err := fr.readFrame(bytes.NewReader(junk)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversize frame: %v", err)
	}
	// Truncated body.
	short := []byte{0x10, 0, 0, 0, 0x01, 0x02}
	if err := fr.readFrame(bytes.NewReader(short)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated frame: %v", err)
	}
	// Field length overruns payload.
	var fw frameWriter
	fw.reset(opGet)
	fw.buf = append(fw.buf, 0xff, 0x01) // declares a 255-byte field
	var buf bytes.Buffer
	fw.flush(&buf)
	if err := fr.readFrame(&buf); err != nil {
		t.Fatal(err)
	}
	if b := fr.bytes(); b != nil || !errors.Is(fr.err, ErrBadFrame) {
		t.Fatalf("overrunning field: %q, %v", b, fr.err)
	}
}
