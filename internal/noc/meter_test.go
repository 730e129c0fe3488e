package noc

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// refMeter is the meter's earlier layout, kept as the oracle the packed
// window must match: one uint64 per slot holding cycle<<16 | count, exact
// for cycles below 2^48.
type refMeter struct {
	width uint64
	slot  []uint64
}

func newRefMeter(width int) *refMeter {
	return &refMeter{width: uint64(width), slot: make([]uint64, 1<<meterBits)}
}

func (m *refMeter) Reserve(at int64) int64 {
	const refCountBits = 16
	const refCountMask = 1<<refCountBits - 1
	if at < 0 {
		at = 0
	}
	for {
		i := at & (1<<meterBits - 1)
		s := m.slot[i]
		tag := uint64(at) << refCountBits
		if s&^refCountMask != tag {
			m.slot[i] = tag | 1
			return at
		}
		if s&refCountMask < m.width {
			m.slot[i] = s + 1
			return at
		}
		at++
	}
}

const (
	window = 1 << meterBits
	// A stream makes at most this many reservations, and none asks for a
	// cycle above ExactCycles-window, so no grant rolls over past the
	// exact range.
	streamCalls = window - 1
	streamLo    = -window
	streamHi    = ExactCycles - window
)

// meterStream replays a decoded request stream through the packed meter
// and the reference and fails on the first grant that differs. The stream
// starts at start folded into [streamLo, streamHi]; each byte pair
// (op, arg) then moves the requested cycle: a small step either way
// (contention and out-of-order requests), whole windows (the same slot one
// or many windows apart), or a jump anywhere in the range. Every request is
// folded back into [streamLo, streamHi], so negative cycles occur too.
func meterStream(t *testing.T, width int, start uint64, ops []byte) {
	t.Helper()
	m, ref := NewMeter(width), newRefMeter(width)
	const span = streamHi - streamLo + 1
	at := streamLo + int64(start%span)
	for k := 0; k+1 < len(ops) && k/2 < streamCalls; k += 2 {
		op, arg := ops[k], int64(int8(ops[k+1]))
		switch op % 4 {
		case 0:
			at += arg >> 4
		case 1:
			at += arg * window
		case 2:
			at += arg * window << (op >> 2 % 24)
		case 3:
			at += int64(op)<<27 | int64(uint8(arg))<<19 | int64(op)*arg
		}
		at = streamLo + ((at-streamLo)%span+span)%span
		if got, want := m.Reserve(at), ref.Reserve(at); got != want {
			t.Fatalf("width %d, call %d: Reserve(%d) = %d, reference %d", width, k/2, at, got, want)
		}
	}
}

// TestMeterMatchesReference runs seeded request streams through the packed
// meter and the earlier cycle<<16 | count meter at every width from 1 to
// MaxWidth and requires identical grants on every call. Streams start near
// cycle 0, near the top of the exact range, or anywhere in it, and mix
// bursts at one cycle (which saturate even a 255-wide port) with random
// steps.
func TestMeterMatchesReference(t *testing.T) {
	for width := 1; width <= MaxWidth; width++ {
		r := rand.New(rand.NewSource(int64(width)))
		var start uint64
		switch width % 3 {
		case 0:
			start = uint64(r.Intn(2 * window)) // straddles cycle 0
		case 1:
			start = uint64(streamHi - streamLo - r.Intn(2*window)) // top of the range
		default:
			start = r.Uint64()
		}
		ops := make([]byte, 0, 2*streamCalls)
		for len(ops) < 2*streamCalls {
			if r.Intn(4) == 0 {
				for b := r.Intn(2*width + 2); b > 0; b-- {
					ops = append(ops, 0, 0)
				}
				continue
			}
			ops = append(ops, byte(r.Intn(256)), byte(r.Intn(256)))
		}
		meterStream(t, width, start, ops)
	}
}

// FuzzMeter is the coverage-guided form of TestMeterMatchesReference: any
// width, start and op stream must give the reference's grants.
func FuzzMeter(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte{0, 0, 0, 0, 1, 1, 0, 0})
	f.Add(uint8(254), uint64(streamHi-streamLo), []byte{0, 0, 0, 0, 0, 0, 2, 0x80, 3, 0x7f})
	f.Add(uint8(1), uint64(1)<<34, []byte{1, 0xff, 1, 1, 6, 3, 0, 0xf0, 0, 0xf0})
	f.Fuzz(func(t *testing.T, w uint8, start uint64, ops []byte) {
		meterStream(t, int(w)%MaxWidth+1, start, ops)
	})
}

var sinkMeter *Meter

// TestMeterFootprint pins the meter's allocation: a window of exactly
// 8 KiB, which is its own size class and rounds up by nothing, and two
// allocations per NewMeter, the meter and its window.
func TestMeterFootprint(t *testing.T) {
	if got := unsafe.Sizeof(*NewMeter(1).slot); got != 8<<10 {
		t.Fatalf("window is %d bytes, want 8 KiB", got)
	}
	if got := testing.AllocsPerRun(100, func() { sinkMeter = NewMeter(4) }); got != 2 {
		t.Fatalf("NewMeter makes %v allocations, want 2", got)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sinkMeter = NewMeter(4)
	}
	runtime.ReadMemStats(&after)
	// 16 bytes of meter plus up to 48 bytes per call of the runtime's own
	// allocations during the loop; a window rounded up to the next size
	// class would add 1,280.
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 8<<10+64 {
		t.Fatalf("NewMeter allocates %d bytes, want at most %d", per, 8<<10+64)
	}
}
