package hbase

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"tpcxiot/internal/telemetry"
)

// wireMessage is the codec of one RPC request or response body.
type wireMessage interface {
	encode(*frameWriter)
	decode(*frameReader) error
}

// telemetryContext is the trace header of a sampled request.
func telemetryContext() telemetry.TraceContext {
	return telemetry.TraceContext{TraceID: 0xfeed, SpanID: 42, Sampled: true}
}

// requestBodies and responseBodies build a fresh value of every body codec.
var (
	requestBodies = []func() wireMessage{
		func() wireMessage { return &mutateRequest{} },
		func() wireMessage { return &getRequest{} },
		func() wireMessage { return &scanOpenRequest{} },
		func() wireMessage { return &scanNextRequest{} },
		func() wireMessage { return &scannerRef{} },
		func() wireMessage { return &aggregateRequest{} },
	}
	responseBodies = []func() wireMessage{
		func() wireMessage { return &getResponse{} },
		func() wireMessage { return &scannerRef{} },
		func() wireMessage { return &scanNextResponse{} },
		func() wireMessage { return &aggregateResponse{} },
	}
)

// decodeRequest decodes fr as a request with the given body codec and
// returns a re-encoder for the decoded fields, or nil when it does not
// decode.
func decodeRequest(fr *frameReader, body wireMessage) func(*frameWriter) {
	fr.off, fr.err = 2, nil
	ctx, region := fr.request()
	if body.decode(fr) != nil {
		return nil
	}
	op := fr.op
	return func(w *frameWriter) {
		w.request(op, ctx, region)
		body.encode(w)
	}
}

// decodeResponse is decodeRequest for a response: the status header, then
// — for statusOK — the body.
func decodeResponse(fr *frameReader, body wireMessage) func(*frameWriter) {
	fr.off, fr.err = 2, nil
	spans, remote := fr.status()
	if fr.err != nil {
		return nil
	}
	if remote != nil {
		return func(w *frameWriter) { w.fail(remote) }
	}
	if body.decode(fr) != nil {
		return nil
	}
	return func(w *frameWriter) {
		w.ok(spans)
		body.encode(w)
	}
}

func frameBytes(t *testing.T, enc func(*frameWriter)) []byte {
	t.Helper()
	var w frameWriter
	enc(&w)
	var buf bytes.Buffer
	if err := w.flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkReencode requires that fields decoded off the wire re-encode to a
// frame that decodes to the same fields: encoding the second decode gives
// the same bytes as encoding the first.
func checkReencode(t *testing.T, enc func(*frameWriter), decode func(*frameReader) func(*frameWriter)) {
	t.Helper()
	first := frameBytes(t, enc)
	var fr frameReader
	if err := fr.readFrame(bytes.NewReader(first)); err != nil {
		t.Fatalf("re-encoded frame does not read back: %v", err)
	}
	again := decode(&fr)
	if again == nil {
		t.Fatalf("re-encoded frame does not decode: %v\n%x", fr.err, first)
	}
	if second := frameBytes(t, again); !bytes.Equal(first, second) {
		t.Fatalf("decoded fields changed on re-encode:\n%x\n%x", first, second)
	}
}

// FuzzFrameDecode feeds arbitrary bytes through readFrame and every request
// and response decoder. Each input must error or decode, never panic, and
// whatever decodes must re-encode to the same fields. The seed corpus
// (testdata/fuzz/FuzzFrameDecode) holds one valid request frame per opcode,
// one response frame per result shape and the garbage frames of
// TestWireFormatRejectsGarbage.
func FuzzFrameDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frameReader
		if err := fr.readFrame(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrBadFrame) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("readFrame: unexpected error %v", err)
			}
			return
		}
		for _, mk := range requestBodies {
			if enc := decodeRequest(&fr, mk()); enc != nil {
				checkReencode(t, enc, func(r *frameReader) func(*frameWriter) { return decodeRequest(r, mk()) })
			}
		}
		for _, mk := range responseBodies {
			if enc := decodeResponse(&fr, mk()); enc != nil {
				checkReencode(t, enc, func(r *frameReader) func(*frameWriter) { return decodeResponse(r, mk()) })
			}
		}
	})
}

// TestReadFrameAllocatesAsBytesArrive: a header declaring the largest
// frame, followed by a few bytes and EOF, is a truncated frame — and costs
// the reader what arrived, not what was declared.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	var data []byte
	data = binary.LittleEndian.AppendUint32(data, maxFrame)
	data = append(data, make([]byte, 10)...)

	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var fr frameReader
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fr.readFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncated max-size frame: err = %v, want ErrBadFrame", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<20 {
		t.Fatalf("readFrame allocated %d bytes for 10 received", least)
	}
}

// TestReadFrameReusesBuffer: a reader that already holds a large enough
// buffer reads the next frame into it without allocating.
func TestReadFrameReusesBuffer(t *testing.T) {
	frame := frameBytes(t, func(w *frameWriter) {
		w.request(opGet, telemetryContext(), "region")
		getRequest{key: bytes.Repeat([]byte{'k'}, 3*frameChunk)}.encode(w)
	})
	var fr frameReader
	if err := fr.readFrame(bytes.NewReader(frame)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := fr.readFrame(bytes.NewReader(frame)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 { // the bytes.Reader
		t.Fatalf("re-reading a frame allocated %.0f times", allocs)
	}
	var m getRequest
	fr.request()
	if err := m.decode(&fr); err != nil || len(m.key) != 3*frameChunk {
		t.Fatalf("decoded key of %d bytes, err %v", len(m.key), err)
	}
}

// TestDecodeBoundsWireCounts: a count field claiming far more elements than
// the frame holds fails as ErrBadFrame instead of sizing an allocation from
// it (the server-side mutate decode used to panic in makeslice).
func TestDecodeBoundsWireCounts(t *testing.T) {
	huge := func(w *frameWriter) { w.uvarint(1 << 62) }
	cases := []struct {
		name   string
		enc    func(*frameWriter)
		decode func(*frameReader) func(*frameWriter)
	}{
		{"mutate", func(w *frameWriter) { w.request(opMutate, telemetryContext(), "r"); huge(w) },
			func(r *frameReader) func(*frameWriter) { return decodeRequest(r, &mutateRequest{}) }},
		{"scan rows", func(w *frameWriter) { w.ok(nil); w.flag(true); huge(w) },
			func(r *frameReader) func(*frameWriter) { return decodeResponse(r, &scanNextResponse{}) }},
		{"aggregate windows", func(w *frameWriter) { w.ok(nil); w.uvarint(0); huge(w) },
			func(r *frameReader) func(*frameWriter) { return decodeResponse(r, &aggregateResponse{}) }},
		{"span block", func(w *frameWriter) { w.reset(statusOK); w.buf[flagsIdx] |= flagSpans; huge(w) },
			func(r *frameReader) func(*frameWriter) { return decodeResponse(r, &scannerRef{}) }},
	}
	for _, tc := range cases {
		var fr frameReader
		if err := fr.readFrame(bytes.NewReader(frameBytes(t, tc.enc))); err != nil {
			t.Fatal(err)
		}
		if enc := tc.decode(&fr); enc != nil || !errors.Is(fr.err, ErrBadFrame) {
			t.Fatalf("%s: decoded=%v err=%v, want ErrBadFrame", tc.name, enc != nil, fr.err)
		}
	}
}

// TestOverloadedRetryAfterRoundTrips: the shed status carries its hint in
// microseconds; a hint too large for a time.Duration is a malformed frame,
// not a negative back-off.
func TestOverloadedRetryAfterRoundTrips(t *testing.T) {
	var fr frameReader
	shed := frameBytes(t, func(w *frameWriter) { w.fail(&OverloadedError{RetryAfter: 7 * time.Millisecond}) })
	if err := fr.readFrame(bytes.NewReader(shed)); err != nil {
		t.Fatal(err)
	}
	_, remote := fr.status()
	var over *OverloadedError
	if fr.err != nil || !errors.As(remote, &over) || over.RetryAfter != 7*time.Millisecond {
		t.Fatalf("shed decoded as %v (frame err %v)", remote, fr.err)
	}

	overflow := frameBytes(t, func(w *frameWriter) { w.reset(statusOverloaded); w.uvarint(math.MaxUint64) })
	if err := fr.readFrame(bytes.NewReader(overflow)); err != nil {
		t.Fatal(err)
	}
	if fr.status(); !errors.Is(fr.err, ErrBadFrame) {
		t.Fatalf("overflowing retry-after: frame err %v, want ErrBadFrame", fr.err)
	}
}
