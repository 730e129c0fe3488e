package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Distributed-execution wire format.
//
// The procpool execution backend (internal/distrib) ships sweep points to
// worker subprocesses as length-prefixed binary frames over stdin/stdout,
// one round trip per simulation. Two frame types exist, both following the
// same envelope:
//
//	magic   [4]byte  "SREQ" (request) or "SRES" (result)
//	length  uint32   little-endian payload byte count
//	payload [length]byte
//
// The SREQ payload carries every field of one simulation's content-addressed
// cache key, varint-encoded:
//
//	version  uvarint (currently 1)
//	id       uvarint (correlation id, echoed verbatim by the result)
//	bench    uvarint length + bytes
//	phase    svarint (-1 = whole benchmark)
//	slices, cacheKB, traceLen  uvarint
//	seed     svarint
//	opNetW, quantum  uvarint
//	sample   byte (0 = exact, 1 = sampled); when sampled:
//	  window, period  uvarint
//	  warmup          svarint (-1 = explicit zero-length warmup)
//	  sampleSeed      svarint
//
// The SRES payload:
//
//	version  uvarint (currently 1)
//	id       uvarint
//	status   byte (0 = ok, 1 = error)
//	error:   uvarint length + message bytes (status 1; no further fields)
//	ok:      cycles svarint, insts uvarint, sampled byte (0 or 1),
//	         windows uvarint, relCI95 float64 bits as fixed 8-byte LE
//
// The length prefix makes frames self-delimiting, so a reader never blocks
// inside a half-written record: a torn frame (killed worker) surfaces as a
// short read of the envelope, which the pool treats as a worker crash.
//
// Decoding is canonical: a reader accepts exactly the bytes a writer
// produces for some value — minimal varints, 0/1 flag bytes, no bytes past
// the last field — so an accepted frame re-encodes to itself and a
// corrupted one is never silently read as a neighbouring value.

const (
	reqMagic = "SREQ"
	resMagic = "SRES"

	distCodecVersion = 1

	// maxFramePayload bounds a frame so a corrupt length prefix cannot
	// drive an allocation by gigabytes. Requests and results are both
	// under a hundred bytes in practice.
	maxFramePayload = 1 << 20
)

// SimRequest is one simulation work item on the wire: the full
// content-addressed key of a measurement, with no host-specific state.
// Sample geometry fields are plain ints (not sim.SampleParams) so the trace
// package stays import-free of the simulator.
type SimRequest struct {
	// ID correlates a result frame with its request; the procpool backend
	// assigns it, workers echo it.
	ID       uint64
	Bench    string
	Phase    int // -1 = whole benchmark
	Slices   int
	CacheKB  int
	TraceLen int
	Seed     int64
	OpNetW   int
	Quantum  int
	// Sampled-execution geometry; SampleEnabled false means exact mode and
	// the remaining fields are ignored.
	SampleEnabled bool
	SampleWindow  int
	SamplePeriod  int
	SampleWarmup  int // -1 = explicit zero-length warmup
	SampleSeed    int64
}

// SimResult is one simulation outcome on the wire.
type SimResult struct {
	ID uint64
	// Err carries a simulation-level failure (e.g. unknown benchmark).
	// Transport-level failures never produce a SimResult; they surface as
	// frame read/write errors and are retried by the pool.
	Err     string
	Cycles  int64
	Insts   uint64
	Sampled bool
	Windows int
	RelCI95 float64
}

// frameWriter accumulates one varint-encoded payload.
type frameWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (f *frameWriter) putU(v uint64) {
	n := binary.PutUvarint(f.tmp[:], v)
	f.buf.Write(f.tmp[:n])
}

func (f *frameWriter) putS(v int64) {
	n := binary.PutVarint(f.tmp[:], v)
	f.buf.Write(f.tmp[:n])
}

func (f *frameWriter) putBytes(b []byte) {
	f.putU(uint64(len(b)))
	f.buf.Write(b)
}

// flush writes magic + length + payload as one Write call, so a frame is
// either fully buffered into the pipe or not started.
func (f *frameWriter) flush(w io.Writer, magic string) error {
	payload := f.buf.Bytes()
	out := make([]byte, 0, 8+len(payload))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	_, err := w.Write(out)
	return err
}

// readFrame reads one envelope and returns its payload.
func readFrame(r io.Reader, magic string) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %s frame header: %v", ErrBadTrace, magic, err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: bad frame magic %q (want %s)", ErrBadTrace, hdr[:4], magic)
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: %s frame payload %d bytes exceeds limit", ErrBadTrace, magic, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: %s frame payload: %v", ErrBadTrace, magic, err)
	}
	return payload, nil
}

// WriteRequest encodes one SREQ frame to w.
func WriteRequest(w io.Writer, req SimRequest) error {
	var f frameWriter
	f.putU(distCodecVersion)
	f.putU(req.ID)
	f.putBytes([]byte(req.Bench))
	f.putS(int64(req.Phase))
	f.putU(uint64(req.Slices))
	f.putU(uint64(req.CacheKB))
	f.putU(uint64(req.TraceLen))
	f.putS(req.Seed)
	f.putU(uint64(req.OpNetW))
	f.putU(uint64(req.Quantum))
	if req.SampleEnabled {
		f.buf.WriteByte(1)
		f.putU(uint64(req.SampleWindow))
		f.putU(uint64(req.SamplePeriod))
		f.putS(int64(req.SampleWarmup))
		f.putS(req.SampleSeed)
	} else {
		f.buf.WriteByte(0)
	}
	return f.flush(w, reqMagic)
}

// ReadRequest decodes one SREQ frame from r. It returns io.EOF untouched
// when the stream ends cleanly at a frame boundary (the worker shutdown
// signal: the pool closed the pipe).
func ReadRequest(r io.Reader) (SimRequest, error) {
	payload, err := readFrame(r, reqMagic)
	if err != nil {
		return SimRequest{}, err
	}
	br := bytes.NewReader(payload)
	d := frameDecoder{r: br}
	var req SimRequest
	if v := d.u(); v != distCodecVersion {
		return SimRequest{}, d.fail(fmt.Errorf("unsupported request codec version %d", v))
	}
	req.ID = d.u()
	req.Bench = string(d.bytes(1 << 10))
	req.Phase = int(d.s())
	req.Slices = int(d.u())
	req.CacheKB = int(d.u())
	req.TraceLen = int(d.u())
	req.Seed = d.s()
	req.OpNetW = int(d.u())
	req.Quantum = int(d.u())
	if d.flag() {
		req.SampleEnabled = true
		req.SampleWindow = int(d.u())
		req.SamplePeriod = int(d.u())
		req.SampleWarmup = int(d.s())
		req.SampleSeed = d.s()
	}
	if err := d.finish(); err != nil {
		return SimRequest{}, fmt.Errorf("%w: request payload: %v", ErrBadTrace, err)
	}
	return req, nil
}

// WriteResult encodes one SRES frame to w.
func WriteResult(w io.Writer, res SimResult) error {
	var f frameWriter
	f.putU(distCodecVersion)
	f.putU(res.ID)
	if res.Err != "" {
		f.buf.WriteByte(1)
		f.putBytes([]byte(res.Err))
		return f.flush(w, resMagic)
	}
	f.buf.WriteByte(0)
	f.putS(res.Cycles)
	f.putU(res.Insts)
	var flags byte
	if res.Sampled {
		flags |= 1
	}
	f.buf.WriteByte(flags)
	f.putU(uint64(res.Windows))
	var ci [8]byte
	binary.LittleEndian.PutUint64(ci[:], math.Float64bits(res.RelCI95))
	f.buf.Write(ci[:])
	return f.flush(w, resMagic)
}

// ReadResult decodes one SRES frame from r. io.EOF passes through untouched
// when the stream ends at a frame boundary (worker exited).
func ReadResult(r io.Reader) (SimResult, error) {
	payload, err := readFrame(r, resMagic)
	if err != nil {
		return SimResult{}, err
	}
	br := bytes.NewReader(payload)
	d := frameDecoder{r: br}
	var res SimResult
	if v := d.u(); v != distCodecVersion {
		return SimResult{}, d.fail(fmt.Errorf("unsupported result codec version %d", v))
	}
	res.ID = d.u()
	if d.flag() {
		res.Err = string(d.bytes(1 << 16))
		if err := d.finish(); err != nil {
			return SimResult{}, fmt.Errorf("%w: result payload: %v", ErrBadTrace, err)
		}
		if res.Err == "" {
			return SimResult{}, fmt.Errorf("%w: result error frame with empty message", ErrBadTrace)
		}
		return res, nil
	}
	res.Cycles = d.s()
	res.Insts = d.u()
	res.Sampled = d.flag()
	res.Windows = int(d.u())
	var ci [8]byte
	if _, err := io.ReadFull(br, ci[:]); err != nil && d.err == nil {
		d.err = err
	}
	res.RelCI95 = math.Float64frombits(binary.LittleEndian.Uint64(ci[:]))
	if err := d.finish(); err != nil {
		return SimResult{}, fmt.Errorf("%w: result payload: %v", ErrBadTrace, err)
	}
	return res, nil
}

// frameDecoder reads varints from a payload, latching the first error so
// call sites stay linear.
type frameDecoder struct {
	r   *bytes.Reader
	err error
}

// u reads a minimal uvarint: an overlong encoding (trailing 0x80 groups)
// is an error, not a second spelling of the same value.
func (d *frameDecoder) u() uint64 {
	if d.err != nil {
		return 0
	}
	before := d.r.Len()
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
		return 0
	}
	var tmp [binary.MaxVarintLen64]byte
	if before-d.r.Len() != binary.PutUvarint(tmp[:], v) {
		d.err = fmt.Errorf("non-minimal varint for %d", v)
	}
	return v
}

// s reads a minimal zig-zag varint (binary.PutVarint's encoding).
func (d *frameDecoder) s() int64 {
	ux := d.u()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// flag reads a 0/1 byte.
func (d *frameDecoder) flag() bool {
	b := d.byte()
	if b > 1 && d.err == nil {
		d.err = fmt.Errorf("flag byte %d, want 0 or 1", b)
	}
	return b == 1 && d.err == nil
}

func (d *frameDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
	}
	return b
}

func (d *frameDecoder) bytes(limit uint64) []byte {
	n := d.u()
	if d.err != nil {
		return nil
	}
	if n > limit {
		d.err = fmt.Errorf("byte field of %d exceeds limit %d", n, limit)
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = err
		return nil
	}
	return b
}

// finish returns the latched error, or an error for payload bytes left
// past the last field.
func (d *frameDecoder) finish() error {
	if d.err == nil && d.r.Len() != 0 {
		d.err = fmt.Errorf("%d trailing payload bytes", d.r.Len())
	}
	return d.err
}

func (d *frameDecoder) fail(err error) error {
	if d.err != nil {
		return fmt.Errorf("%w: %v", ErrBadTrace, d.err)
	}
	return fmt.Errorf("%w: %v", ErrBadTrace, err)
}
