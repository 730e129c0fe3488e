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
	n := New("t", 8, 8, 1, MinWindow)
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
	n := New("t", 4, 4, 1, MinWindow)
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
	n := New("t", 4, 4, 2, MinWindow)
	src, dst := Coord{0, 0}, Coord{1, 0}
	a := n.Send(10, src, dst)
	b := n.Send(10, src, dst)
	c := n.Send(10, src, dst)
	if a != 12 || b != 12 || c != 13 {
		t.Fatalf("arrivals = %d,%d,%d; want 12,12,13", a, b, c)
	}
}

func TestIngressContention(t *testing.T) {
	n := New("t", 8, 1, 1, MinWindow)
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
		n := New("t", 8, 8, 4, MinWindow)
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
	n := New("t", 4, 4, 1, MinWindow)
	dst := Coord{2, 2}
	if at := n.Send(5, Coord{0, 0}, dst); at != 10 {
		t.Fatalf("arrival = %d, want 10 (injection at 5, 1 + 4 hops)", at)
	}
	if st := n.Stats(); st.Messages != 1 || st.TotalHops != 4 || st.StallCycles != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOutOfGridPanics(t *testing.T) {
	n := New("t", 4, 4, 1, MinWindow)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-grid coordinate must panic")
		}
	}()
	n.Send(0, Coord{9, 0}, Coord{0, 0})
}

// TestBoxMatchesFabric sends the same contended traffic among the tiles of
// one box through a fabric-wide network and through a network sized to the
// box: every delivery cycle and statistic must agree, and a tile one step
// outside the box on any side must panic.
func TestBoxMatchesFabric(t *testing.T) {
	tiles := []Coord{{5, 3}, {6, 3}, {5, 4}, {6, 4}, {7, 3}}
	o, w, h := BoundingBox(tiles)
	if o != (Coord{5, 3}) || w != 3 || h != 2 {
		t.Fatalf("BoundingBox = %v %dx%d, want {5 3} 3x2", o, w, h)
	}
	fab, box := New("f", 16, 8, 2, MinWindow), NewBox("b", o, w, h, 2, MinWindow)
	for i := 0; i < 500; i++ {
		now := int64(i / 3)
		src, dst := tiles[i%len(tiles)], tiles[(i*7+1)%len(tiles)]
		if a, b := fab.Send(now, src, dst), box.Send(now, src, dst); a != b {
			t.Fatalf("message %d %v->%v: box delivers at %d, fabric at %d", i, src, dst, b, a)
		}
	}
	if fab.Stats() != box.Stats() {
		t.Fatalf("box stats %+v, fabric %+v", box.Stats(), fab.Stats())
	}
	for _, c := range []Coord{{4, 3}, {8, 3}, {5, 2}, {5, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v outside the box did not panic", c)
				}
			}()
			box.Send(0, tiles[0], c)
		}()
	}
}

func TestMeterOutOfOrderReservations(t *testing.T) {
	m := NewMeter(1, MinWindow)
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
	m := NewMeter(3, MinWindow)
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

// TestMeterWindowAliasing pins the meter's window semantics at the smallest
// and the largest window: slots are tagged per cycle over the window, so a
// reservation one window later takes over the slot and the older count is
// forgotten, and a reservation that then probes the older cycle finds the
// later cycle's count and is counted as an alias; a saturated cycle rolls
// over to the next one; negative requests clamp to cycle 0; Reset forgets
// every reservation and the alias count; cycles 2^32 apart share a slot
// and a tag; the zero Meter grants every reservation as asked; and
// widths beyond 8 bits are refused.
func TestMeterWindowAliasing(t *testing.T) {
	for _, window := range []int64{MinWindow, MaxWindow} {
		expect := func(m *Meter, at, want int64) {
			t.Helper()
			if got := m.Reserve(at); got != want {
				t.Fatalf("window %d: Reserve(%d) = %d, want %d", window, at, got, want)
			}
		}
		aliased := func(m *Meter, want uint64) {
			t.Helper()
			if got := m.Aliased(); got != want {
				t.Fatalf("window %d: Aliased() = %d, want %d", window, got, want)
			}
		}
		w := int(window)

		m := NewMeter(1, w)
		expect(m, 5, 5)
		expect(m, 5+window, 5+window) // same slot, newer cycle: not blocked
		aliased(m, 0)
		expect(m, 5, 5) // the count for cycle 5 was forgotten
		aliased(m, 1)   // ... and the probe found cycle 5+window's count
		expect(m, 5, 6) // cycle 5 is saturated again: roll over
		aliased(m, 1)

		m = NewMeter(2, w)
		expect(m, 10, 10)
		expect(m, 10, 10)
		expect(m, 10, 11)
		expect(m, 10, 11)
		expect(m, 10, 12)
		expect(m, window-1, window-1) // last slot of the window
		expect(m, window-1, window-1)
		expect(m, window-1, window) // rolls over into slot 0 of the next window
		aliased(m, 0)

		m = NewMeter(1, w)
		expect(m, -7, 0)
		expect(m, -1, 1)
		expect(m, 0, 2)

		m = NewMeter(1, w)
		expect(m, 0, 0)
		expect(m, 3, 3)
		expect(m, 3+window, 3+window)
		expect(m, 3, 3)
		aliased(m, 1)
		m.Reset()
		aliased(m, 0)
		expect(m, 0, 0)
		expect(m, 3, 3)
		expect(m, 3+window, 3+window)
		expect(m, 3+window, 4+window)

		// The exact range ends at 2^32: a cycle that far away carries the
		// same 24-bit tag, so its slot still holds the older cycle's count.
		m = NewMeter(1, w)
		expect(m, 9, 9)
		expect(m, 9+ExactCycles, 10+ExactCycles)
	}

	// The zero Meter meters nothing.
	var zero Meter
	for range 3 {
		if got := zero.Reserve(4); got != 4 {
			t.Fatalf("zero Meter: Reserve(4) = %d, want 4", got)
		}
	}

	// A slot packs a 24-bit window tag and an 8-bit count, so the width
	// must fit in 8 bits.
	NewMeter(1<<8-1, MinWindow)
	defer func() {
		if recover() == nil {
			t.Fatal("width 1<<8 accepted: its count would overflow into the window tag")
		}
	}()
	NewMeter(1<<8, MinWindow)
}

func TestMeterProperty(t *testing.T) {
	// Reserve never returns a cycle earlier than requested, and per-cycle
	// grants never exceed the width.
	f := func(reqs []uint16) bool {
		m := NewMeter(2, MinWindow)
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

// TestWindowFor pins the window rule: the smallest power of two at least
// twice the horizon, clamped to [MinWindow, MaxWindow].
func TestWindowFor(t *testing.T) {
	for _, c := range []struct {
		horizon int64
		want    int
	}{
		{-5, MinWindow}, {0, MinWindow}, {1, MinWindow}, {100, MinWindow}, {128, MinWindow},
		{129, 512}, {256, 512}, {257, 1024}, {300, 1024}, {512, 1024},
		{513, MaxWindow}, {1000, MaxWindow}, {MaxHorizon, MaxWindow},
		{MaxHorizon + 1, MaxWindow}, {1 << 40, MaxWindow},
	} {
		if got := WindowFor(c.horizon); got != c.want {
			t.Errorf("WindowFor(%d) = %d, want %d", c.horizon, got, c.want)
		}
	}
	for h := int64(1); h <= MaxHorizon; h++ {
		if w := int64(WindowFor(h)); w < 2*h || !validWindow(int(w)) || (w > MinWindow && w/2 >= 2*h) {
			t.Fatalf("WindowFor(%d) = %d", h, w)
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New("x", 0, 4, 1, MinWindow) },
		func() { New("x", 4, 4, 0, MinWindow) },
		func() { New("x", 4, 4, MaxWidth+1, MinWindow) },
		func() { NewMeter(0, MinWindow) },
		func() { NewMeter(1, MinWindow/2) },
		func() { NewMeter(1, MinWindow+1) },
		func() { NewMeter(1, 3*MinWindow) },
		func() { NewMeter(1, 2*MaxWindow) },
		func() { New("x", 4, 4, 1, 0) },
		func() { New("x", 4, 4, 1, 1000) },
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
