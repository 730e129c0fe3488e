package noc

import (
	"testing"
	"testing/quick"
)

func clampCoord(c Coord, w, h int) Coord {
	x, y := c.X%w, c.Y%h
	if x < 0 {
		x += w
	}
	if y < 0 {
		y += h
	}
	return Coord{X: x, Y: y}
}

func TestManhattanProperties(t *testing.T) {
	const w, h = 16, 16
	sym := func(a, b Coord) bool {
		a, b = clampCoord(a, w, h), clampCoord(b, w, h)
		return Manhattan(a, b) == Manhattan(b, a)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Fatal("symmetry:", err)
	}
	tri := func(a, b, c Coord) bool {
		a, b, c = clampCoord(a, w, h), clampCoord(b, w, h), clampCoord(c, w, h)
		return Manhattan(a, c) <= Manhattan(a, b)+Manhattan(b, c)
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Fatal("triangle inequality:", err)
	}
	ident := func(a Coord) bool {
		a = clampCoord(a, w, h)
		return Manhattan(a, a) == 0
	}
	if err := quick.Check(ident, nil); err != nil {
		t.Fatal("identity:", err)
	}
}

func TestLatencyModel(t *testing.T) {
	// Paper: two cycles between nearest neighbours, one more per extra hop.
	if got := Latency(Coord{0, 0}, Coord{1, 0}); got != 2 {
		t.Errorf("nearest neighbour latency = %d, want 2", got)
	}
	if got := Latency(Coord{0, 0}, Coord{3, 2}); got != 6 {
		t.Errorf("5-hop latency = %d, want 6", got)
	}
	if got := Latency(Coord{2, 2}, Coord{2, 2}); got != 1 {
		t.Errorf("self latency = %d, want 1 (injection)", got)
	}
}

func TestSendDeliverOrdering(t *testing.T) {
	n := New("t", 8, 8, 1)
	dst := Coord{4, 4}
	// Two messages from different distances; the nearer must arrive first.
	far := n.Send(0, Coord{0, 0}, dst)
	near := n.Send(0, Coord{4, 3}, dst)
	if near >= far {
		t.Fatalf("near=%d far=%d", near, far)
	}
	if got, want := near, int64(2); got != want {
		t.Fatalf("near arrival = %d, want %d", got, want)
	}
	if got, want := far, int64(9); got != want {
		t.Fatalf("far arrival = %d, want %d", got, want)
	}
}

func TestPortContention(t *testing.T) {
	n := New("t", 4, 4, 1)
	src, dst := Coord{0, 0}, Coord{1, 0}
	a := n.Send(10, src, dst)
	b := n.Send(10, src, dst)
	c := n.Send(10, src, dst)
	if a != 12 || b != 13 || c != 14 {
		t.Fatalf("serialized arrivals = %d,%d,%d; want 12,13,14", a, b, c)
	}
	st := n.Stats()
	if st.Messages != 3 || st.TotalHops != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.StallCycles != 3 { // b waits 1 at egress, c waits 2
		t.Fatalf("stall cycles = %d, want 3", st.StallCycles)
	}
}

func TestWidthTwoDoublesBandwidth(t *testing.T) {
	n := New("t", 4, 4, 2)
	src, dst := Coord{0, 0}, Coord{1, 0}
	a := n.Send(10, src, dst)
	b := n.Send(10, src, dst)
	c := n.Send(10, src, dst)
	if a != 12 || b != 12 || c != 13 {
		t.Fatalf("arrivals = %d,%d,%d; want 12,12,13", a, b, c)
	}
}

func TestIngressContention(t *testing.T) {
	n := New("t", 8, 1, 1)
	dst := Coord{4, 0}
	// Equidistant sources from both sides collide at the ejection port.
	a := n.Send(0, Coord{3, 0}, dst)
	b := n.Send(0, Coord{5, 0}, dst)
	if a == b {
		t.Fatalf("ejection port must serialize: %d vs %d", a, b)
	}
}

func TestDeliverDeterministicTieBreak(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		n := New("t", 8, 8, 4)
		dst := Coord{0, 0}
		// Equidistant sources on a four-wide port share the ejection cycle.
		a := n.Send(0, Coord{2, 0}, dst)
		b := n.Send(0, Coord{0, 2}, dst)
		if a != 3 || b != 3 {
			t.Fatalf("trial %d: arrivals = %d,%d; want 3,3", trial, a, b)
		}
	}
}

// TestNextArrivalAndReset pins one message's delivery cycle and the
// statistics it leaves.
func TestNextArrivalAndReset(t *testing.T) {
	n := New("t", 4, 4, 1)
	dst := Coord{2, 2}
	if at := n.Send(5, Coord{0, 0}, dst); at != 10 {
		t.Fatalf("arrival = %d, want 10 (injection at 5, 1 + 4 hops)", at)
	}
	if st := n.Stats(); st.Messages != 1 || st.TotalHops != 4 || st.StallCycles != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOutOfGridPanics(t *testing.T) {
	n := New("t", 4, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-grid coordinate must panic")
		}
	}()
	n.Send(0, Coord{9, 0}, Coord{0, 0})
}

func TestMeterOutOfOrderReservations(t *testing.T) {
	m := NewMeter(1)
	// A far-future reservation must not delay a present one.
	if got := m.Reserve(100000); got != 100000 {
		t.Fatalf("future reservation at %d", got)
	}
	if got := m.Reserve(5); got != 5 {
		t.Fatalf("present reservation pushed to %d by future one", got)
	}
	if got := m.Reserve(5); got != 6 {
		t.Fatalf("second present reservation at %d, want 6", got)
	}
}

func TestMeterCapacityPerCycle(t *testing.T) {
	m := NewMeter(3)
	for i := 0; i < 3; i++ {
		if got := m.Reserve(42); got != 42 {
			t.Fatalf("slot %d at %d", i, got)
		}
	}
	if got := m.Reserve(42); got != 43 {
		t.Fatalf("overflow slot at %d, want 43", got)
	}
	m.Reset()
	if got := m.Reserve(42); got != 42 {
		t.Fatalf("after reset at %d", got)
	}
}

// TestMeterWindowAliasing pins the meter's window semantics: slots are
// tagged per cycle over a 2048-cycle window, so a reservation one window
// later takes over the slot and the older count is forgotten; a saturated
// cycle rolls over to the next one; negative requests clamp to cycle 0;
// Reset forgets every reservation; and widths beyond 16 bits are refused.
func TestMeterWindowAliasing(t *testing.T) {
	const window = 1 << meterBits
	expect := func(m *Meter, at, want int64) {
		t.Helper()
		if got := m.Reserve(at); got != want {
			t.Fatalf("Reserve(%d) = %d, want %d", at, got, want)
		}
	}

	m := NewMeter(1)
	expect(m, 5, 5)
	expect(m, 5+window, 5+window) // same slot, newer cycle: not blocked
	expect(m, 5, 5)               // the count for cycle 5 was forgotten
	expect(m, 5, 6)               // cycle 5 is saturated again: roll over

	m = NewMeter(2)
	expect(m, 10, 10)
	expect(m, 10, 10)
	expect(m, 10, 11)
	expect(m, 10, 11)
	expect(m, 10, 12)
	expect(m, window-1, window-1) // last slot of the window
	expect(m, window-1, window-1)
	expect(m, window-1, window) // rolls over into slot 0 of the next window

	m = NewMeter(1)
	expect(m, -7, 0)
	expect(m, -1, 1)
	expect(m, 0, 2)

	m = NewMeter(1)
	expect(m, 0, 0)
	expect(m, 3, 3)
	expect(m, 3+window, 3+window)
	m.Reset()
	expect(m, 0, 0)
	expect(m, 3, 3)
	expect(m, 3+window, 3+window)
	expect(m, 3+window, 4+window)

	// A slot packs cycle<<16 | count, so the width must fit in 16 bits.
	NewMeter(1<<16 - 1)
	defer func() {
		if recover() == nil {
			t.Fatal("width 1<<16 accepted: its count would overflow into the cycle tag")
		}
	}()
	NewMeter(1 << 16)
}

func TestMeterProperty(t *testing.T) {
	// Reserve never returns a cycle earlier than requested, and per-cycle
	// grants never exceed the width.
	f := func(reqs []uint16) bool {
		m := NewMeter(2)
		grants := make(map[int64]int)
		for _, r := range reqs {
			at := int64(r % 512)
			got := m.Reserve(at)
			if got < at {
				return false
			}
			grants[got]++
			if grants[got] > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New("x", 0, 4, 1) },
		func() { New("x", 4, 4, 0) },
		func() { NewMeter(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction accepted")
				}
			}()
			fn()
		}()
	}
}
