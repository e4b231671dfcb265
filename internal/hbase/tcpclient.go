package hbase

import (
	"bufio"
	"fmt"
	"net"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// transport is how a client reaches region servers: direct in-process calls
// or the TCP wire protocol. Scans are sessions: openScanner pins a
// server-side snapshot scanner, scanNext streams one chunk (more=false
// means the server already closed the session), closeScanner abandons one
// early. Every call carries the client-side span to parent server work
// under — inert for unsampled operations; the TCP transport propagates it
// as the frame trace header and stitches the returned server spans back in.
type transport interface {
	mutate(tr *tableRegion, batch []Mutation, sp telemetry.TSpan) error
	get(tr *tableRegion, key []byte, sp telemetry.TSpan) ([]byte, bool, error)
	openScanner(tr *tableRegion, lo, hi []byte, limit int, sp telemetry.TSpan) (uint64, error)
	scanNext(tr *tableRegion, id uint64, chunk int, sp telemetry.TSpan) ([]Row, bool, error)
	closeScanner(tr *tableRegion, id uint64, sp telemetry.TSpan) error
	aggregate(tr *tableRegion, lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs, sp telemetry.TSpan) (lsm.AggResult, error)
	close() error
}

// inprocTransport calls the server methods directly (still handler-gated).
// The span flows straight through — server spans land in the same trace
// with no wire crossing.
type inprocTransport struct{}

func (inprocTransport) mutate(tr *tableRegion, batch []Mutation, sp telemetry.TSpan) error {
	return tr.primary.mutate(sp, tr.group, batch)
}

func (inprocTransport) get(tr *tableRegion, key []byte, sp telemetry.TSpan) ([]byte, bool, error) {
	return tr.primary.get(sp, tr.replicas[0], key)
}

func (inprocTransport) openScanner(tr *tableRegion, lo, hi []byte, limit int, sp telemetry.TSpan) (uint64, error) {
	return tr.primary.openScanner(sp, tr.replicas[0], lo, hi, limit)
}

func (inprocTransport) scanNext(tr *tableRegion, id uint64, chunk int, sp telemetry.TSpan) ([]Row, bool, error) {
	return tr.primary.next(sp, id, chunk)
}

func (inprocTransport) closeScanner(tr *tableRegion, id uint64, sp telemetry.TSpan) error {
	return tr.primary.closeScanner(id)
}

func (inprocTransport) aggregate(tr *tableRegion, lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs, sp telemetry.TSpan) (lsm.AggResult, error) {
	return tr.primary.aggregate(sp, tr.replicas[0], lo, hi, minTS, maxTS, windowMS, funcs)
}

func (inprocTransport) close() error { return nil }

// tcpTransport speaks the wire protocol, one lazily dialled connection per
// region server. Like a Client, a tcpTransport serves a single worker
// thread, so no locking is needed.
type tcpTransport struct {
	addrs map[*RegionServer]string
	conns map[*RegionServer]*tcpConn
}

type tcpConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func newTCPTransport(cl *Cluster) (*tcpTransport, error) {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	if cl.tcp == nil {
		return nil, ErrNoTCP
	}
	t := &tcpTransport{
		addrs: make(map[*RegionServer]string, len(cl.servers)),
		conns: make(map[*RegionServer]*tcpConn),
	}
	for i, srv := range cl.servers {
		t.addrs[srv] = cl.tcp.addrs[i]
	}
	return t, nil
}

func (t *tcpTransport) conn(srv *RegionServer) (*tcpConn, error) {
	if c, ok := t.conns[srv]; ok {
		return c, nil
	}
	addr, ok := t.addrs[srv]
	if !ok {
		return nil, fmt.Errorf("hbase: no address for server %d", srv.ID())
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("hbase: dial %s: %w", addr, err)
	}
	c := &tcpConn{
		c: nc,
		r: bufio.NewReaderSize(nc, 256<<10),
		w: bufio.NewWriterSize(nc, 256<<10),
	}
	t.conns[srv] = c
	return c, nil
}

// call sends the request frame and reads the response into resp. On
// transport errors the connection is discarded so the next call redials;
// a server-side error or a shed leaves it usable. For sampled operations
// the server's span block is parsed off the response and stitched under
// sp's trace before any result field is read.
func (t *tcpTransport) call(srv *RegionServer, req *frameWriter, resp *frameReader, sp telemetry.TSpan) error {
	c, err := t.conn(srv)
	if err != nil {
		return err
	}
	err = req.flush(c.w)
	if err == nil {
		err = c.w.Flush()
	}
	if err == nil {
		err = resp.readFrame(c.r)
	}
	var spans []telemetry.SpanRecord
	var remote error
	if err == nil {
		spans, remote = resp.status()
		err = resp.err
	}
	if err != nil {
		c.c.Close()
		delete(t.conns, srv)
		return err
	}
	if remote != nil {
		return remote
	}
	sp.AddRemoteSpans(spans)
	return nil
}

func (t *tcpTransport) mutate(tr *tableRegion, batch []Mutation, sp telemetry.TSpan) error {
	var req frameWriter
	var resp frameReader
	req.request(opMutate, sp.Context(), tr.info.Name)
	mutateRequest{batch: batch}.encode(&req)
	return t.call(tr.primary, &req, &resp, sp)
}

func (t *tcpTransport) get(tr *tableRegion, key []byte, sp telemetry.TSpan) ([]byte, bool, error) {
	var req frameWriter
	var resp frameReader
	req.request(opGet, sp.Context(), tr.info.Name)
	getRequest{key: key}.encode(&req)
	if err := t.call(tr.primary, &req, &resp, sp); err != nil {
		return nil, false, err
	}
	var m getResponse
	err := m.decode(&resp)
	return m.value, m.found, err
}

func (t *tcpTransport) openScanner(tr *tableRegion, lo, hi []byte, limit int, sp telemetry.TSpan) (uint64, error) {
	var req frameWriter
	var resp frameReader
	req.request(opScanOpen, sp.Context(), tr.info.Name)
	scanOpenRequest{lo: lo, hi: hi, limit: uint64(limit)}.encode(&req)
	if err := t.call(tr.primary, &req, &resp, sp); err != nil {
		return 0, err
	}
	var m scannerRef
	err := m.decode(&resp)
	return m.id, err
}

func (t *tcpTransport) scanNext(tr *tableRegion, id uint64, chunk int, sp telemetry.TSpan) ([]Row, bool, error) {
	var req frameWriter
	var resp frameReader
	req.request(opScanNext, sp.Context(), tr.info.Name)
	scanNextRequest{id: id, chunk: uint64(chunk)}.encode(&req)
	if err := t.call(tr.primary, &req, &resp, sp); err != nil {
		return nil, false, err
	}
	// The rows alias the frame buffer; resp is stack-local, so dropping the
	// reference is all the detaching needed.
	var m scanNextResponse
	if err := m.decode(&resp); err != nil {
		return nil, false, err
	}
	return m.rows, m.more, nil
}

func (t *tcpTransport) aggregate(tr *tableRegion, lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs, sp telemetry.TSpan) (lsm.AggResult, error) {
	var req frameWriter
	var resp frameReader
	req.request(opAggregate, sp.Context(), tr.info.Name)
	aggregateRequest{lo: lo, hi: hi, minTS: minTS, maxTS: maxTS, windowMS: windowMS, funcs: funcs}.encode(&req)
	if err := t.call(tr.primary, &req, &resp, sp); err != nil {
		return lsm.AggResult{}, err
	}
	var m aggregateResponse
	if err := m.decode(&resp); err != nil {
		return lsm.AggResult{}, err
	}
	return m.res, nil
}

// closeScanner sends no trace header: a close does no traced server work.
func (t *tcpTransport) closeScanner(tr *tableRegion, id uint64, sp telemetry.TSpan) error {
	var req frameWriter
	var resp frameReader
	req.request(opScanClose, telemetry.TraceContext{}, tr.info.Name)
	scannerRef{id: id}.encode(&req)
	return t.call(tr.primary, &req, &resp, sp)
}

func (t *tcpTransport) close() error {
	var firstErr error
	for srv, c := range t.conns {
		if err := c.c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(t.conns, srv)
	}
	return firstErr
}
