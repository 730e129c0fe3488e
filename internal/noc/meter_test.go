package noc

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// testWindows are the windows the reference tests cover: the smallest,
// which the paper's machine gets, and the largest.
var testWindows = [...]int{MinWindow, MaxWindow}

// refMeter is the meter's earlier layout, kept as the oracle the packed
// window must match: one uint64 per slot holding cycle<<16 | count, exact
// for cycles below 2^48. It counts aliases by the same rule.
type refMeter struct {
	width   uint64
	slot    []uint64
	aliases uint64
}

func newRefMeter(width, window int) *refMeter {
	return &refMeter{width: uint64(width), slot: make([]uint64, window)}
}

func (m *refMeter) Reserve(at int64) int64 {
	const refCountBits = 16
	const refCountMask = 1<<refCountBits - 1
	if at < 0 {
		at = 0
	}
	for {
		i := at & int64(len(m.slot)-1)
		s := m.slot[i]
		tag := uint64(at) << refCountBits
		if s&^refCountMask != tag {
			if s&^refCountMask > tag && s&refCountMask != 0 {
				m.aliases++
			}
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

// unboundedMeter is the meter without a window: one count per cycle ever
// reserved, kept in a map. It is the timing model a windowed meter stands
// in for.
type unboundedMeter struct {
	width int
	count map[int64]int
}

func newUnboundedMeter(width int) *unboundedMeter {
	return &unboundedMeter{width: width, count: make(map[int64]int)}
}

func (m *unboundedMeter) Reserve(at int64) int64 {
	at = max(at, 0)
	for m.count[at] >= m.width {
		at++
	}
	m.count[at]++
	return at
}

// streamCalls bounds the reservations of one stream. No request asks for a
// cycle above exact-MaxWindow, so at most this many calls grant no cycle
// past the meter's exact range at any window.
const streamCalls = MaxWindow - 1

// streamAt moves the requested cycle at by one decoded step (op, arg) and
// folds it into [-window, exact-MaxWindow], exact being ExactCycles: a small step either way
// (contention and out-of-order requests), whole windows (the same slot one
// or many windows apart), or a jump anywhere in the range. Negative cycles
// occur too.
func streamAt(at, window, exact int64, op byte, arg int64) int64 {
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
	lo, span := -window, exact-MaxWindow+window+1
	return lo + ((at-lo)%span+span)%span
}

// meterStream replays a decoded request stream through the packed meter
// and the reference at the given window and fails on the first grant or
// alias count that differs. The stream starts at start folded into the
// window's exact range and moves by streamAt.
func meterStream(t *testing.T, width, window int, start uint64, ops []byte) {
	t.Helper()
	m, ref := NewMeter(width, window), newRefMeter(width, window)
	w, exact := int64(window), int64(ExactCycles)
	at := streamAt(int64(start%uint64(exact)), w, exact, 0, 0)
	for k := 0; k+1 < len(ops) && k/2 < streamCalls; k += 2 {
		at = streamAt(at, w, exact, ops[k], int64(int8(ops[k+1])))
		if got, want := m.Reserve(at), ref.Reserve(at); got != want {
			t.Fatalf("width %d window %d, call %d: Reserve(%d) = %d, reference %d", width, window, k/2, at, got, want)
		}
		if got, want := m.Aliased(), ref.aliases; got != want {
			t.Fatalf("width %d window %d, call %d: Aliased() = %d, reference %d", width, window, k/2, got, want)
		}
	}
}

// randomOps draws a seeded op stream for meterStream and exactStream:
// bursts at one cycle (which saturate even a 255-wide port) mixed with
// random steps.
func randomOps(r *rand.Rand, width int) []byte {
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
	return ops
}

// TestMeterMatchesReference runs seeded request streams through the packed
// meter and the earlier cycle<<16 | count meter at every width from 1 to
// MaxWidth, at the smallest and the largest window, and requires identical
// grants and alias counts on every call. Streams start near cycle 0, near
// the top of their range, or anywhere in it.
func TestMeterMatchesReference(t *testing.T) {
	for _, window := range testWindows {
		const exact = ExactCycles
		for width := 1; width <= MaxWidth; width++ {
			r := rand.New(rand.NewSource(int64(width)))
			var start uint64
			switch width % 3 {
			case 0:
				start = uint64(r.Intn(2 * window)) // straddles cycle 0
			case 1:
				start = uint64(exact - MaxWindow - r.Intn(2*window)) // top of the range
			default:
				start = r.Uint64()
			}
			meterStream(t, width, window, start, randomOps(r, width))
		}
	}
}

// FuzzMeter is the coverage-guided form of TestMeterMatchesReference: any
// width, start and op stream must give the reference's grants and alias
// counts at both windows.
func FuzzMeter(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte{0, 0, 0, 0, 1, 1, 0, 0})
	f.Add(uint8(254), uint64(ExactCycles), []byte{0, 0, 0, 0, 0, 0, 2, 0x80, 3, 0x7f})
	f.Add(uint8(1), uint64(1)<<34, []byte{1, 0xff, 1, 1, 6, 3, 0, 0xf0, 0, 0xf0})
	f.Fuzz(func(t *testing.T, w uint8, start uint64, ops []byte) {
		for _, window := range testWindows {
			meterStream(t, int(w)%MaxWidth+1, window, start, ops)
		}
	})
}

// exactStream replays a decoded request stream through the packed meter
// and the unbounded reference. While the meter's alias count is zero, every
// grant must be the reference's. When lagFree is set, each request is
// instead folded to at most window-1 cycles below the highest cycle granted
// so far, and the meter must then never alias.
func exactStream(t *testing.T, width, window int, start uint64, ops []byte, lagFree bool) (aliased bool) {
	t.Helper()
	m, ref := NewMeter(width, window), newUnboundedMeter(width)
	w, exact := int64(window), int64(ExactCycles)
	at := streamAt(int64(start%uint64(exact)), w, exact, 0, 0)
	high := int64(-1)
	for k := 0; k+1 < len(ops) && k/2 < streamCalls; k += 2 {
		at = streamAt(at, w, exact, ops[k], int64(int8(ops[k+1])))
		if lagFree && high >= 0 && at <= high-w {
			at = high - w + 1 + (high-w-at)%w
		}
		got, want := m.Reserve(at), ref.Reserve(at)
		high = max(high, got)
		if m.Aliased() != 0 {
			if lagFree {
				t.Fatalf("width %d window %d, call %d: Reserve(%d) aliased, yet no request lags the high mark %d by a window", width, window, k/2, at, high)
			}
			return true
		}
		if got != want {
			t.Fatalf("width %d window %d, call %d: Reserve(%d) = %d with no alias, unbounded meter %d", width, window, k/2, at, got, want)
		}
	}
	return false
}

// TestMeterExactUnlessAliased is the alias counter's certificate: seeded
// request streams at every width, at both windows, must get the unbounded
// per-cycle meter's grants for as long as Aliased() reads 0; streams whose
// requests never lag the highest grant by a window must never alias; and a
// late reservation that overwrites a live count must alias. The random
// streams jump whole windows back and forth, so most of them alias, which
// the test requires: a meter that never counts must then fail it.
func TestMeterExactUnlessAliased(t *testing.T) {
	for _, window := range testWindows {
		aliased := 0
		for width := 1; width <= MaxWidth; width += 3 {
			r := rand.New(rand.NewSource(int64(width)))
			start := uint64(r.Intn(4 * window))
			if exactStream(t, width, window, start, randomOps(r, width), false) {
				aliased++
			}
			exactStream(t, width, window, r.Uint64(), randomOps(r, width), true)
		}
		if aliased == 0 {
			t.Fatalf("window %d: no random stream aliased", window)
		}

		// A reservation one window late finds cycle 7+window's live count
		// in cycle 7's slot: an alias, after which the meter may diverge.
		w := int64(window)
		m, ref := NewMeter(1, window), newUnboundedMeter(1)
		for _, at := range []int64{7, 7 + w, 7} {
			if got, want := m.Reserve(at), ref.Reserve(at); got != want && m.Aliased() == 0 {
				t.Fatalf("window %d: Reserve(%d) = %d, unbounded %d, with no alias", window, at, got, want)
			}
		}
		if m.Aliased() != 1 {
			t.Fatalf("window %d: a probe of cycle 7 over cycle %d's live count gave Aliased() = %d, want 1", window, 7+w, m.Aliased())
		}
		if got, want := m.Reserve(7+w), ref.Reserve(7+w); got == want {
			t.Fatalf("window %d: Reserve(%d) = %d, the unbounded meter's grant, though cycle 7 overwrote its count", window, 7+w, got)
		}
	}
}

// FuzzMeterExact is the coverage-guided form of TestMeterExactUnlessAliased:
// any width, start and op stream, at both windows, must give the unbounded
// meter's grants while Aliased() is 0, and a stream folded below the
// window's lag must never alias.
func FuzzMeterExact(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte{0, 0, 0, 0, 1, 1, 0, 0, 1, 0xff})
	f.Add(uint8(3), uint64(900), []byte{0, 0x70, 0, 0x70, 0, 0x90, 0, 0, 0, 0, 1, 2, 1, 0xfe})
	f.Add(uint8(254), uint64(1)<<33, []byte{2, 0x80, 3, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, w uint8, start uint64, ops []byte) {
		for _, window := range testWindows {
			exactStream(t, int(w)%MaxWidth+1, window, start, ops, false)
			exactStream(t, int(w)%MaxWidth+1, window, start, ops, true)
		}
	})
}

var sinkMeter *Meter

// TestMeterFootprint pins the meter's allocation at each window: 4 bytes
// per slot, so 1 KiB at the smallest window and 8 KiB at the largest, each
// its own size class with nothing to round up, and two allocations per
// NewMeter, the meter and its window.
func TestMeterFootprint(t *testing.T) {
	for _, window := range testWindows {
		slot := NewMeter(1, window).slot
		if got := uintptr(cap(slot)) * unsafe.Sizeof(slot[0]); got != uintptr(4*window) {
			t.Fatalf("window %d is %d bytes, want %d", window, got, 4*window)
		}
		if window == MinWindow && cap(slot)*4 != 1<<10 {
			t.Fatalf("the smallest window is %d bytes, want 1 KiB", cap(slot)*4)
		}
		if got := testing.AllocsPerRun(100, func() { sinkMeter = NewMeter(4, window) }); got != 2 {
			t.Fatalf("window %d: NewMeter makes %v allocations, want 2", window, got)
		}
		const n = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			sinkMeter = NewMeter(4, window)
		}
		runtime.ReadMemStats(&after)
		// 48 bytes of meter plus up to 48 bytes per call of the runtime's
		// own allocations during the loop; a window rounded up to the next
		// size class would add at least 128.
		limit := uint64(4*window) + 96
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per > limit {
			t.Fatalf("window %d: NewMeter allocates %d bytes, want at most %d", window, per, limit)
		}
	}
}
