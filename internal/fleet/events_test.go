package fleet

import (
	"math"
	"testing"
)

// checkBatch fails unless the batch is strictly ordered by (t, seq) and
// records every departure it delivers in seen. The tests tag each scheduled
// departure with a distinct lease machine, which identifies it.
func checkBatch(t *testing.T, batch []event, seen map[int]int) {
	t.Helper()
	for i, ev := range batch {
		if i > 0 {
			prev := batch[i-1]
			if ev.t < prev.t || (ev.t == prev.t && ev.seq <= prev.seq) {
				t.Fatalf("batch out of (t, seq) order at %d: (%v, %d) after (%v, %d)",
					i, ev.t, ev.seq, prev.t, prev.seq)
			}
		}
		if !ev.arrive {
			seen[ev.lease.machine]++
		}
	}
}

// TestEventStreamTakeOrder schedules departures at random — in the past, in
// the future, exactly on the next arrival's time and exactly on an earlier
// departure's time — and takes batches over uneven epochs. Every batch must
// be strictly (t, seq)-ordered and every scheduled departure must come out
// exactly once.
func TestEventStreamTakeOrder(t *testing.T) {
	s := newEventStream(11, 200, 0.5, 6000, len(testBenches))
	h := uint64(99)
	rnd := func() float64 {
		h++
		return unit(splitmix64(h))
	}
	seen := map[int]int{}
	scheduled := 0
	var lastDepart float64
	t1 := 0.0
	for !s.done() {
		t1 += 0.02 + 0.3*rnd()
		batch := s.take(t1)
		checkBatch(t, batch, seen)
		for _, ev := range batch {
			if !ev.arrive {
				continue
			}
			var at float64
			switch r := rnd(); {
			case r < 0.2:
				at = s.nextAt // ties with the next arrival
			case r < 0.35:
				at = lastDepart // ties with an earlier departure
			case r < 0.5:
				at = ev.t - rnd() // already due: delivered next batch
			default:
				at = ev.depart
			}
			s.scheduleDeparture(at, lease{machine: scheduled})
			scheduled++
			lastDepart = at
		}
	}
	if len(seen) != scheduled {
		t.Fatalf("%d distinct departures delivered, %d scheduled", len(seen), scheduled)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("departure %d delivered %d times", id, n)
		}
	}
}

// TestEventStreamZeroGapTies: at an infinite arrival rate every arrival
// lands at the same instant (zero gaps). Departures scheduled before, at and
// after that instant must interleave by (t, seq): the earlier ones first,
// the tied ones — which hold the smaller seqs — ahead of every arrival.
func TestEventStreamZeroGapTies(t *testing.T) {
	s := newEventStream(3, math.Inf(1), 1, 40, len(testBenches))
	at := s.nextAt
	times := []float64{at + 0.5, at, at - 1, at, at + 0.25, at - 1}
	for i, d := range times {
		s.scheduleDeparture(d, lease{machine: 1000 + i})
	}
	seen := map[int]int{}
	batch := s.take(at + 1)
	checkBatch(t, batch, seen)
	if len(batch) != 20+len(times) || len(seen) != len(times) {
		t.Fatalf("batch of %d events with %d departures, want %d with %d",
			len(batch), len(seen), 20+len(times), len(times))
	}
	// Departures 1002, 1005 (t-1), then 1001, 1003 (tied), then the
	// arrivals, then 1004 and 1000.
	var order []int
	for _, ev := range batch {
		if ev.arrive {
			if ev.t != at {
				t.Fatalf("arrival at %v, want every arrival at %v", ev.t, at)
			}
			order = append(order, -1)
			continue
		}
		order = append(order, ev.lease.machine)
	}
	want := []int{1002, 1005, 1001, 1003}
	for i := 0; i < 20; i++ {
		want = append(want, -1)
	}
	want = append(want, 1004, 1000)
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event order %v, want %v", order, want)
		}
	}
	if !s.done() {
		t.Fatal("stream not done after its only batch")
	}
}
