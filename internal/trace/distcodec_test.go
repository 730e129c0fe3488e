package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func sampleRequest() SimRequest {
	return SimRequest{
		ID:            42,
		Bench:         "omnetpp",
		Phase:         -1,
		Slices:        4,
		CacheKB:       512,
		TraceLen:      500_000,
		Seed:          2014,
		OpNetW:        2,
		Quantum:       7,
		SampleEnabled: true,
		SampleWindow:  1000,
		SamplePeriod:  15000,
		SampleWarmup:  -1,
		SampleSeed:    3,
	}
}

func sampleResult() SimResult {
	return SimResult{
		ID:      42,
		Cycles:  204864,
		Insts:   500_000,
		Sampled: true,
		Windows: 33,
		RelCI95: 0.0123,
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range []SimRequest{
		sampleRequest(),
		{ID: 0, Bench: "gcc", Phase: 3, Slices: 1, CacheKB: 0, TraceLen: 8000, Seed: -7},
	} {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != req {
			t.Fatalf("round trip: got %+v want %+v", got, req)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	for _, res := range []SimResult{
		sampleResult(),
		{ID: 9, Cycles: 100, Insts: 80},
		{ID: 1, Err: "unknown benchmark \"nope\""},
	} {
		var buf bytes.Buffer
		if err := WriteResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		got, err := ReadResult(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != res {
			t.Fatalf("round trip: got %+v want %+v", got, res)
		}
	}
}

// TestFrameStream checks that frames are self-delimiting: several frames on
// one pipe decode in order and the stream ends with a clean io.EOF.
func TestFrameStream(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(0); i < 5; i++ {
		req := sampleRequest()
		req.ID = i
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		req, err := ReadRequest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if req.ID != i {
			t.Fatalf("frame %d decoded with id %d", i, req.ID)
		}
	}
	if _, err := ReadRequest(&buf); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

// TestTornFrames exercises the crash surface: truncated envelopes and
// payloads must fail loudly (never block, never return garbage), and a
// mid-stream EOF must not masquerade as the clean shutdown signal.
func TestTornFrames(t *testing.T) {
	var full bytes.Buffer
	if err := WriteResult(&full, sampleResult()); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		_, err := ReadResult(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(raw))
		}
		if err == io.EOF {
			t.Fatalf("truncation at %d/%d bytes returned clean io.EOF", cut, len(raw))
		}
		if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrBadTrace", cut, err)
		}
	}
}

func TestBadMagicAndOversizedFrame(t *testing.T) {
	if _, err := ReadResult(bytes.NewReader([]byte("SREQ\x00\x00\x00\x00"))); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("request magic accepted as result: %v", err)
	}
	// A corrupt length prefix must be rejected before allocation.
	hdr := []byte{'S', 'R', 'E', 'S', 0xff, 0xff, 0xff, 0x7f}
	if _, err := ReadResult(bytes.NewReader(hdr)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("oversized frame accepted: %v", err)
	}
}

func TestResultErrorFrameNeedsMessage(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft an error frame with an empty message.
	var f frameWriter
	f.putU(distCodecVersion)
	f.putU(1)
	f.buf.WriteByte(1)
	f.putBytes(nil)
	if err := f.flush(&buf, resMagic); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResult(&buf); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("empty error message accepted: %v", err)
	}
}

// BenchmarkResultCodec measures the per-measurement serialization cost of
// the procpool wire protocol: one request encode+decode plus one result
// encode+decode, i.e. both ends of a full dispatch round trip. The cost
// must be noise against a multi-ms simulation.
func BenchmarkResultCodec(b *testing.B) {
	req := sampleRequest()
	res := sampleResult()
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteRequest(&buf, req); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadRequest(&buf); err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		if err := WriteResult(&buf, res); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadResult(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// frameSeeds returns the encoded frames of the round-trip cases above,
// written by write, plus each one cut short and with its length prefix
// raised past maxFramePayload: the corpus both fuzz targets start from.
func frameSeeds[T any](t testing.TB, write func(io.Writer, T) error, vals ...T) [][]byte {
	var seeds [][]byte
	for _, v := range vals {
		var buf bytes.Buffer
		if err := write(&buf, v); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		huge := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(huge[4:8], maxFramePayload+1)
		seeds = append(seeds, raw, raw[:len(raw)-1], huge)
	}
	return seeds
}

// checkFrame is the property both fuzz targets share. A frame read must not
// panic. When it is accepted, the bytes it consumed must declare a payload
// within maxFramePayload, re-encode to exactly themselves, and fail to
// decode when cut anywhere short — with ErrBadTrace, never the clean
// io.EOF of a stream that ended at a frame boundary.
func checkFrame[T any](t *testing.T, data []byte, read func(io.Reader) (T, error), write func(io.Writer, T) error) {
	r := bytes.NewReader(data)
	v, err := read(r)
	if err != nil {
		return
	}
	frame := data[:len(data)-r.Len()]
	if n := binary.LittleEndian.Uint32(frame[4:8]); n > maxFramePayload {
		t.Fatalf("accepted a frame declaring %d payload bytes, over the %d limit", n, maxFramePayload)
	}
	var buf bytes.Buffer
	if err := write(&buf, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), frame) {
		t.Fatalf("accepted frame re-encodes differently:\n read %x\nwrote %x", frame, buf.Bytes())
	}
	for cut := 1; cut < len(frame); cut++ {
		if _, err := read(bytes.NewReader(frame[:cut])); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("frame cut to %d of %d bytes: got %v, want ErrBadTrace", cut, len(frame), err)
		}
	}
}

func FuzzReadRequest(f *testing.F) {
	for _, s := range frameSeeds(f, WriteRequest, sampleRequest(),
		SimRequest{ID: 0, Bench: "gcc", Phase: 3, Slices: 1, CacheKB: 0, TraceLen: 8000, Seed: -7}) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFrame(t, data, ReadRequest, WriteRequest) })
}

func FuzzReadResult(f *testing.F) {
	for _, s := range frameSeeds(f, WriteResult, sampleResult(),
		SimResult{ID: 9, Cycles: 100, Insts: 80}, SimResult{ID: 1, Err: "unknown benchmark \"nope\""}) {
		f.Add(s)
	}
	f.Add([]byte("SREQ\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) { checkFrame(t, data, ReadResult, WriteResult) })
}

// TestNonCanonicalFramesRejected pins the decoder's canonical form with one
// hand-made frame per alternative spelling the fuzz targets would find.
func TestNonCanonicalFramesRejected(t *testing.T) {
	frame := func(magic string, payload ...byte) []byte {
		out := append([]byte(magic), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(out[4:], uint32(len(payload)))
		return append(out, payload...)
	}
	// A valid ok result: version 1, id 9, status 0, cycles 100 (zig-zag
	// 200 = 0xc8 0x01), insts 80, not sampled, 0 windows, CI 0.
	ok := []byte{1, 9, 0, 0xc8, 0x01, 80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, err := ReadResult(bytes.NewReader(frame(resMagic, ok...))); err != nil {
		t.Fatalf("canonical frame refused: %v", err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"overlong id", append([]byte{1, 0x89, 0x00}, ok[2:]...)},
		{"status 2", append([]byte{1, 9, 2}, ok[3:]...)},
		{"sampled 3", append(append([]byte{}, ok[:6]...), append([]byte{3}, ok[7:]...)...)},
		{"trailing byte", append(append([]byte{}, ok...), 0)},
	} {
		if _, err := ReadResult(bytes.NewReader(frame(resMagic, c.payload...))); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: got %v, want ErrBadTrace", c.name, err)
		}
	}
}
