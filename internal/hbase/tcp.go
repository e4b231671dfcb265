package hbase

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"tpcxiot/internal/telemetry"
)

// ErrNoTCP is returned when TCP clients are requested before ServeTCP.
var ErrNoTCP = errors.New("hbase: cluster is not serving TCP")

// tcpState holds the cluster's network listeners.
type tcpState struct {
	listeners []net.Listener
	addrs     []string
	wg        sync.WaitGroup
}

// ServeTCP starts one loopback TCP listener per region server, making the
// cluster reachable over the wire protocol. Call before creating TCP
// clients; Close (or the returned stop function) shuts the listeners down.
func (cl *Cluster) ServeTCP() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return ErrClusterClosed
	}
	if cl.tcp != nil {
		return nil
	}
	st := &tcpState{}
	for _, srv := range cl.servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.stop()
			return fmt.Errorf("hbase: listen for server %d: %w", srv.ID(), err)
		}
		st.listeners = append(st.listeners, ln)
		st.addrs = append(st.addrs, ln.Addr().String())
		st.wg.Add(1)
		go cl.acceptLoop(st, ln, srv)
	}
	cl.tcp = st
	return nil
}

func (st *tcpState) stop() {
	for _, ln := range st.listeners {
		ln.Close()
	}
}

// ServerAddrs returns the TCP address of each region server, index-aligned
// with Servers(). Empty until ServeTCP.
func (cl *Cluster) ServerAddrs() []string {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	if cl.tcp == nil {
		return nil
	}
	return append([]string(nil), cl.tcp.addrs...)
}

func (cl *Cluster) acceptLoop(st *tcpState, ln net.Listener, srv *RegionServer) {
	defer st.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go cl.serveConn(conn, srv)
	}
}

// serveConn handles one client connection: a loop of request frames.
func (cl *Cluster) serveConn(conn net.Conn, srv *RegionServer) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 256<<10)
	w := bufio.NewWriterSize(conn, 256<<10)
	var req frameReader
	var resp frameWriter
	for {
		if err := req.readFrame(r); err != nil {
			return // EOF or broken frame: drop the connection
		}
		cl.dispatch(&req, &resp, srv)
		if err := resp.flush(w); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// dispatch executes one request against the server and builds the response.
// A sampled request (trace header present) gets its server-side work
// collected in a joined trace whose spans are shipped back on the response
// frame, right after the status, for client-side stitching.
func (cl *Cluster) dispatch(req *frameReader, resp *frameWriter, srv *RegionServer) {
	tctx, regionName := req.request()
	c := rpcCall{srv: srv, req: req, resp: resp}
	err := req.err
	if err == nil {
		c.rop = telemetry.JoinRemote(tctx)
		c.parent = c.rop.RemoteParent(tctx)
		if c.tr = cl.findRegion(regionName); c.tr == nil {
			err = fmt.Errorf("hbase: unknown region %q", regionName)
		} else if int(req.op) >= len(handlers) || handlers[req.op] == nil {
			err = fmt.Errorf("hbase: unknown opcode %d", req.op)
		} else {
			err = handlers[req.op](c)
		}
	}
	if err != nil {
		resp.fail(err)
	}
}

// rpcCall is one request being served: the target server and region, the
// parent span server work hangs under, and the request and response frames
// positioned after the request header.
type rpcCall struct {
	srv    *RegionServer
	tr     *tableRegion
	rop    *telemetry.OpTrace
	parent telemetry.TSpan
	req    *frameReader
	resp   *frameWriter
}

// ok starts the success response, shipping back the server-side spans of a
// sampled request, and returns the frame for the results.
func (c rpcCall) ok() *frameWriter {
	c.resp.ok(c.rop.TakeSpans())
	return c.resp
}

// handlers is the server side of every RPC, indexed by opcode: decode the
// request body, run the server method, encode the response. An error
// becomes an error response.
var handlers = [...]func(c rpcCall) error{
	opMutate: func(c rpcCall) error {
		var m mutateRequest
		if err := m.decode(c.req); err != nil {
			return err
		}
		if err := c.srv.mutate(c.parent, c.tr.group, m.batch); err != nil {
			return err
		}
		c.ok()
		return nil
	},
	opGet: func(c rpcCall) error {
		var m getRequest
		if err := m.decode(c.req); err != nil {
			return err
		}
		v, found, err := c.srv.get(c.parent, c.tr.replicas[0], m.key)
		if err != nil {
			return err
		}
		getResponse{value: v, found: found}.encode(c.ok())
		return nil
	},
	opScanOpen: func(c rpcCall) error {
		var m scanOpenRequest
		if err := m.decode(c.req); err != nil {
			return err
		}
		id, err := c.srv.openScanner(c.parent, c.tr.replicas[0], m.lo, m.hi, int(m.limit))
		if err != nil {
			return err
		}
		scannerRef{id: id}.encode(c.ok())
		return nil
	},
	opScanNext: func(c rpcCall) error {
		var m scanNextRequest
		if err := m.decode(c.req); err != nil {
			return err
		}
		rows, more, err := c.srv.next(c.parent, m.id, int(m.chunk))
		if err != nil {
			return err
		}
		scanNextResponse{rows: rows, more: more}.encode(c.ok())
		return nil
	},
	opScanClose: func(c rpcCall) error {
		var m scannerRef
		if err := m.decode(c.req); err != nil {
			return err
		}
		if err := c.srv.closeScanner(m.id); err != nil {
			return err
		}
		c.ok()
		return nil
	},
	opAggregate: func(c rpcCall) error {
		var m aggregateRequest
		if err := m.decode(c.req); err != nil {
			return err
		}
		res, err := c.srv.aggregate(c.parent, c.tr.replicas[0], m.lo, m.hi, m.minTS, m.maxTS, m.windowMS, m.funcs)
		if err != nil {
			return err
		}
		aggregateResponse{res: res}.encode(c.ok())
		return nil
	},
}

// findRegion resolves a region name to its routing entry.
func (cl *Cluster) findRegion(name string) *tableRegion {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	for _, t := range cl.tables {
		for _, tr := range t.regions {
			if tr.info.Name == name {
				return tr
			}
		}
	}
	return nil
}

// stopTCPLocked closes listeners; caller holds cl.mu.
func (cl *Cluster) stopTCPLocked() {
	if cl.tcp != nil {
		cl.tcp.stop()
		cl.tcp = nil
	}
}
