package hbase

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// The cluster's clients can reach region servers two ways: direct
// in-process calls (the default) or a loopback TCP wire protocol that
// models the benchmark's client-to-region-server network path. Both routes
// execute the same handler-gated server methods.
//
// Wire format: every message is a frame
//
//	uint32  payload length (little endian)
//	byte    opcode (request) or status (response)
//	byte    flags (trace header / span block present)
//	payload fields, each length-prefixed with a uvarint
//
// Requests carry an optional trace header (trace id + parent span id, when
// the operation is sampled), then the region name followed by op-specific
// fields; responses carry a status byte (statusOK/statusErr/
// statusOverloaded), an optional span block (the server-side spans of a
// sampled operation, shipped back for client-side stitching), and either
// results or the error. The protocol is deliberately minimal: one
// outstanding request per connection, matching the one-client-per-worker-
// thread model.
//
// Each RPC's fields are declared once, below, as a request type and — when
// the RPC returns results — a response type, each with exactly one encode
// and one decode. The TCP client encodes requests and decodes responses;
// the server's dispatch table does the reverse. Decoding reads fields
// straight through a frameReader whose first error is sticky, so a decode
// checks for failure once, at the end.

// opcodes. Scans are a session of three ops (open, a next per chunk,
// close), the wire form of the server's scanner sessions; the retired
// one-shot scan op (formerly opcode 3) shipped a whole region scan as a
// single frame.
const (
	opMutate    byte = 1
	opGet       byte = 2
	opScanOpen  byte = 3
	opScanNext  byte = 4
	opScanClose byte = 5
	// opAggregate is the aggregation-pushdown RPC: the request carries the
	// key range, time range, window width and function mask; the response
	// carries per-(series, window) partial aggregates instead of rows.
	opAggregate byte = 6
)

// response statuses. statusOverloaded is a load-shed: the typed retryable
// refusal (an *OverloadedError), carrying its retry-after hint in
// microseconds, so remote clients reconstruct the same error value the
// in-process transport returns.
const (
	statusOK         byte = 0
	statusErr        byte = 1
	statusOverloaded byte = 2
)

// frame flags. Requests use flagTrace (a trace header follows the flags
// byte); responses use flagSpans (a span block follows the status).
const (
	flagTrace byte = 1 << 0
	flagSpans byte = 1 << 1
)

// maxFrame bounds a single message (a scan of a full region easily fits).
const maxFrame = 256 << 20

// frameChunk is how far the frame buffer may grow ahead of the payload
// bytes actually received, so a header declaring a large frame cannot make
// the reader allocate more than the peer sends.
const frameChunk = 64 << 10

// ErrBadFrame reports a malformed wire message.
var ErrBadFrame = errors.New("hbase: malformed wire frame")

// frameWriter accumulates one frame's payload.
type frameWriter struct {
	buf []byte
}

func (f *frameWriter) reset(op byte) {
	f.buf = append(f.buf[:0], 0, 0, 0, 0, op, 0)
}

// flagsIdx locates the flags byte inside the writer's buffer (after the
// 4-byte length prefix and the op/status byte).
const flagsIdx = 5

// request starts a request frame: the opcode, the trace header of a
// sampled operation (none for an unsampled ctx), then the region name.
func (f *frameWriter) request(op byte, ctx telemetry.TraceContext, region string) {
	f.reset(op)
	if ctx.Sampled {
		f.buf[flagsIdx] |= flagTrace
		f.uvarint(ctx.TraceID)
		f.uvarint(ctx.SpanID)
	}
	f.str(region)
}

// ok starts a success response: the status, then the span block carrying
// the server-side spans of a sampled operation (none for an empty slice).
// Trace ids are omitted — the client rewrites them on stitch.
func (f *frameWriter) ok(spans []telemetry.SpanRecord) {
	f.reset(statusOK)
	if len(spans) == 0 {
		return
	}
	f.buf[flagsIdx] |= flagSpans
	f.uvarint(uint64(len(spans)))
	for i := range spans {
		s := &spans[i]
		f.uvarint(s.SpanID)
		f.uvarint(s.ParentID)
		f.uvarint(uint64(s.StartNs))
		f.uvarint(uint64(s.DurNs))
		f.str(s.Name)
		f.str(s.Service)
	}
}

// fail writes an error response: a load-shed as statusOverloaded with its
// retry-after hint, anything else as statusErr with the error text.
func (f *frameWriter) fail(err error) {
	var over *OverloadedError
	if errors.As(err, &over) {
		f.reset(statusOverloaded)
		f.uvarint(uint64(over.RetryAfter.Microseconds()))
		return
	}
	f.reset(statusErr)
	f.str(err.Error())
}

func (f *frameWriter) bytes(b []byte) {
	f.buf = binary.AppendUvarint(f.buf, uint64(len(b)))
	f.buf = append(f.buf, b...)
}

func (f *frameWriter) str(s string) {
	f.buf = binary.AppendUvarint(f.buf, uint64(len(s)))
	f.buf = append(f.buf, s...)
}

func (f *frameWriter) uvarint(v uint64) {
	f.buf = binary.AppendUvarint(f.buf, v)
}

func (f *frameWriter) flag(b bool) {
	if b {
		f.uvarint(1)
	} else {
		f.uvarint(0)
	}
}

// nilMarker distinguishes nil scan bounds from empty ones on the wire.
const (
	markerNil   byte = 0
	markerBytes byte = 1
)

func (f *frameWriter) optBytes(b []byte) {
	if b == nil {
		f.buf = append(f.buf, markerNil)
		return
	}
	f.buf = append(f.buf, markerBytes)
	f.bytes(b)
}

// flush writes the frame to w.
func (f *frameWriter) flush(w io.Writer) error {
	binary.LittleEndian.PutUint32(f.buf[:4], uint32(len(f.buf)-4))
	_, err := w.Write(f.buf)
	return err
}

// frameReader parses one frame's payload. The first malformed field sets
// err; every later read returns a zero value, so decoders read their fields
// straight through and check err once.
type frameReader struct {
	op    byte
	flags byte
	hdr   [4]byte // length prefix scratch, kept here so it never escapes
	buf   []byte
	off   int
	err   error
}

// readFrame reads a whole frame from r, reusing the buffer across frames.
// The buffer grows only as payload bytes arrive, at most frameChunk (or
// doubling) ahead of them.
func (f *frameReader) readFrame(r io.Reader) error {
	if _, err := io.ReadFull(r, f.hdr[:]); err != nil {
		return err // io.EOF signals clean connection close
	}
	n := binary.LittleEndian.Uint32(f.hdr[:])
	if n < 2 || n > maxFrame {
		return fmt.Errorf("%w: frame length %d", ErrBadFrame, n)
	}
	f.buf = f.buf[:0]
	for len(f.buf) < int(n) {
		if len(f.buf) == cap(f.buf) {
			f.buf = slices.Grow(f.buf, min(int(n)-len(f.buf), max(len(f.buf), frameChunk)))
		}
		got, err := io.ReadFull(r, f.buf[len(f.buf):min(cap(f.buf), int(n))])
		f.buf = f.buf[:len(f.buf)+got]
		if err != nil {
			return fmt.Errorf("%w: truncated frame: %v", ErrBadFrame, err)
		}
	}
	f.op = f.buf[0]
	f.flags = f.buf[1]
	f.off = 2
	f.err = nil
	return nil
}

// setErr records the first decode error.
func (f *frameReader) setErr(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...)
	}
}

// request parses a request's header: the trace header, if present, then
// the region name.
func (f *frameReader) request() (ctx telemetry.TraceContext, region string) {
	if f.flags&flagTrace != 0 {
		ctx = telemetry.TraceContext{TraceID: f.uvarint(), SpanID: f.uvarint(), Sampled: true}
	}
	return ctx, f.str()
}

// status parses a response's header. For statusOK it returns the span
// block; for statusErr and statusOverloaded it returns the server's error,
// rebuilt as the value the in-process transport returns. Header damage
// (including an unknown status) sets f.err instead, which callers check
// first.
func (f *frameReader) status() (spans []telemetry.SpanRecord, remote error) {
	switch f.op {
	case statusOK:
		return f.spans(), nil
	case statusErr:
		return nil, errors.New(f.str())
	case statusOverloaded:
		us := f.uvarint()
		if us > math.MaxInt64/uint64(time.Microsecond) {
			f.setErr("retry-after %dus overflows", us)
		}
		return nil, &OverloadedError{RetryAfter: time.Duration(us) * time.Microsecond}
	}
	f.setErr("status %d", f.op)
	return nil, nil
}

// spans parses the response span block, if present.
func (f *frameReader) spans() []telemetry.SpanRecord {
	if f.flags&flagSpans == 0 {
		return nil
	}
	n := f.uvarint()
	out := make([]telemetry.SpanRecord, 0, capHint(n, 1024))
	for i := uint64(0); i < n && f.err == nil; i++ {
		out = append(out, telemetry.SpanRecord{
			SpanID:   f.uvarint(),
			ParentID: f.uvarint(),
			StartNs:  int64(f.uvarint()),
			DurNs:    int64(f.uvarint()),
			Name:     f.str(),
			Service:  f.str(),
		})
	}
	return out
}

// capHint bounds a pre-allocation sized by a count read off the wire; a
// bogus count fails on the fields that are not there.
func capHint(n uint64, limit int) int {
	if n > uint64(limit) {
		return limit
	}
	return int(n)
}

// bytes returns the next length-prefixed field, aliasing the frame buffer.
func (f *frameReader) bytes() []byte {
	if f.err != nil {
		return nil
	}
	n, sz := binary.Uvarint(f.buf[f.off:])
	if sz <= 0 || uint64(len(f.buf)-f.off-sz) < n {
		f.setErr("bad field length")
		return nil
	}
	f.off += sz
	out := f.buf[f.off : f.off+int(n)]
	f.off += int(n)
	return out
}

func (f *frameReader) str() string {
	return string(f.bytes())
}

func (f *frameReader) uvarint() uint64 {
	if f.err != nil {
		return 0
	}
	v, sz := binary.Uvarint(f.buf[f.off:])
	if sz <= 0 {
		f.setErr("bad uvarint")
		return 0
	}
	f.off += sz
	return v
}

func (f *frameReader) optBytes() []byte {
	if f.err != nil {
		return nil
	}
	if f.off >= len(f.buf) {
		f.setErr("missing optional marker")
		return nil
	}
	marker := f.buf[f.off]
	f.off++
	if marker == markerNil {
		return nil
	}
	return f.bytes()
}

// mutateRequest is the write RPC: a batch of puts and tombstones.
type mutateRequest struct {
	batch []Mutation
}

func (m mutateRequest) encode(f *frameWriter) {
	f.uvarint(uint64(len(m.batch)))
	for _, w := range m.batch {
		f.flag(w.Delete)
		f.bytes(w.Key)
		f.bytes(w.Value)
	}
}

// decode copies every key and value out of the frame: the server reuses
// its request buffer for the next frame while the batch lives on in the
// replication queues.
func (m *mutateRequest) decode(f *frameReader) error {
	n := f.uvarint()
	m.batch = make([]Mutation, 0, capHint(n, 4096))
	for i := uint64(0); i < n && f.err == nil; i++ {
		del := f.uvarint()
		key, value := f.bytes(), f.bytes()
		m.batch = append(m.batch, Mutation{
			Key:    append([]byte(nil), key...),
			Value:  append([]byte(nil), value...),
			Delete: del == 1,
		})
	}
	return f.err
}

// getRequest is the point-read RPC.
type getRequest struct {
	key []byte
}

func (m getRequest) encode(f *frameWriter) { f.bytes(m.key) }

func (m *getRequest) decode(f *frameReader) error {
	m.key = f.bytes()
	return f.err
}

// getResponse carries the value when the key was found.
type getResponse struct {
	value []byte
	found bool
}

func (m getResponse) encode(f *frameWriter) {
	f.flag(m.found)
	if m.found {
		f.bytes(m.value)
	}
}

// decode copies the value: the caller keeps it.
func (m *getResponse) decode(f *frameReader) error {
	if m.found = f.uvarint() != 0; m.found {
		m.value = append([]byte(nil), f.bytes()...)
	}
	return f.err
}

// scanOpenRequest opens a scanner session over [lo, hi); nil bounds are
// unbounded, limit 0 is unlimited.
type scanOpenRequest struct {
	lo, hi []byte
	limit  uint64
}

func (m scanOpenRequest) encode(f *frameWriter) {
	f.optBytes(m.lo)
	f.optBytes(m.hi)
	f.uvarint(m.limit)
}

func (m *scanOpenRequest) decode(f *frameReader) error {
	m.lo, m.hi, m.limit = f.optBytes(), f.optBytes(), f.uvarint()
	return f.err
}

// scannerRef names a scanner session: the scan-open response and the
// scan-close request.
type scannerRef struct {
	id uint64
}

func (m scannerRef) encode(f *frameWriter) { f.uvarint(m.id) }

func (m *scannerRef) decode(f *frameReader) error {
	m.id = f.uvarint()
	return f.err
}

// scanNextRequest asks a scanner session for its next chunk.
type scanNextRequest struct {
	id, chunk uint64
}

func (m scanNextRequest) encode(f *frameWriter) {
	f.uvarint(m.id)
	f.uvarint(m.chunk)
}

func (m *scanNextRequest) decode(f *frameReader) error {
	m.id, m.chunk = f.uvarint(), f.uvarint()
	return f.err
}

// scanNextResponse is one chunk of rows; more=false means the server has
// closed the session.
type scanNextResponse struct {
	rows []Row
	more bool
}

func (m scanNextResponse) encode(f *frameWriter) {
	f.flag(m.more)
	f.uvarint(uint64(len(m.rows)))
	for _, row := range m.rows {
		f.bytes(row.Key)
		f.bytes(row.Value)
	}
}

// decode leaves the rows aliasing the frame buffer: the caller hands the
// buffer's ownership to them instead of re-copying every key and value, so
// the reader must not be reused for another frame while they are live.
func (m *scanNextResponse) decode(f *frameReader) error {
	m.more = f.uvarint() == 1
	n := f.uvarint()
	m.rows = make([]Row, 0, capHint(n, 4096))
	for i := uint64(0); i < n && f.err == nil; i++ {
		m.rows = append(m.rows, Row{Key: f.bytes(), Value: f.bytes()})
	}
	return f.err
}

// aggregateRequest is the aggregation-pushdown RPC: fold [lo, hi) ×
// [minTS, maxTS) into windowMS-wide windows with the given functions.
type aggregateRequest struct {
	lo, hi                 []byte
	minTS, maxTS, windowMS int64
	funcs                  lsm.AggFuncs
}

func (m aggregateRequest) encode(f *frameWriter) {
	f.optBytes(m.lo)
	f.optBytes(m.hi)
	f.uvarint(uint64(m.minTS))
	f.uvarint(uint64(m.maxTS))
	f.uvarint(uint64(m.windowMS))
	f.uvarint(uint64(m.funcs))
}

func (m *aggregateRequest) decode(f *frameReader) error {
	m.lo, m.hi = f.optBytes(), f.optBytes()
	m.minTS, m.maxTS, m.windowMS = int64(f.uvarint()), int64(f.uvarint()), int64(f.uvarint())
	m.funcs = lsm.AggFuncs(f.uvarint())
	return f.err
}

// aggregateResponse carries the per-(series, window) partials.
type aggregateResponse struct {
	res lsm.AggResult
}

func (m aggregateResponse) encode(f *frameWriter) {
	f.uvarint(uint64(m.res.RowsFolded))
	f.uvarint(uint64(len(m.res.Windows)))
	for i := range m.res.Windows {
		w := &m.res.Windows[i]
		f.bytes(w.Series)
		f.uvarint(uint64(w.WindowStart))
		f.uvarint(uint64(w.Count))
		f.uvarint(math.Float64bits(w.Min))
		f.uvarint(math.Float64bits(w.Max))
		f.uvarint(math.Float64bits(w.Sum))
	}
}

// decode copies each series: the caller keeps the windows.
func (m *aggregateResponse) decode(f *frameReader) error {
	m.res.RowsFolded = int64(f.uvarint())
	n := f.uvarint()
	m.res.Windows = make([]lsm.WindowAgg, 0, capHint(n, 4096))
	for i := uint64(0); i < n && f.err == nil; i++ {
		m.res.Windows = append(m.res.Windows, lsm.WindowAgg{
			Series:      append([]byte(nil), f.bytes()...),
			WindowStart: int64(f.uvarint()),
			Count:       int64(f.uvarint()),
			Min:         math.Float64frombits(f.uvarint()),
			Max:         math.Float64frombits(f.uvarint()),
			Sum:         math.Float64frombits(f.uvarint()),
		})
	}
	return f.err
}
