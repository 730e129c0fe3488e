package fleet

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
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
		if !ev.arrive() {
			seen[int(ev.lease.machine)]++
		}
	}
}

// TestEventStreamTakeOrder schedules departures at random — in the past, in
// the future, exactly on the next arrival's time and exactly on an earlier
// departure's time — and takes batches over uneven epochs. Every batch must
// be strictly (t, seq)-ordered and every scheduled departure must come out
// exactly once.
func TestEventStreamTakeOrder(t *testing.T) {
	s := newEventStream(11, 200, 0.5, 0.1, 6000, len(testBenches))
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
			if !ev.arrive() {
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
				at = ev.depart()
			}
			s.scheduleDeparture(at, lease{machine: int32(scheduled)})
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
	s := newEventStream(3, math.Inf(1), 1, 1, 40, len(testBenches))
	at := s.nextAt
	times := []float64{at + 0.5, at, at - 1, at, at + 0.25, at - 1}
	for i, d := range times {
		s.scheduleDeparture(d, lease{machine: int32(1000 + i)})
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
		if ev.arrive() {
			if ev.t != at {
				t.Fatalf("arrival at %v, want every arrival at %v", ev.t, at)
			}
			order = append(order, -1)
			continue
		}
		order = append(order, int(ev.lease.machine))
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

// refStream is the sort-everything reference for eventStream: the same
// arrival draws, and every pending departure in one plain slice, filtered
// and fully sorted on each take.
type refStream struct {
	draw     *eventStream // used only for its per-index draws
	arrivals int
	nextIdx  int
	nextAt   float64
	seq      int
	pending  []event
}

func newRefStream(s *eventStream) *refStream {
	return &refStream{draw: s, arrivals: s.arrivals, nextAt: s.interarrival(0)}
}

func (r *refStream) take(t1 float64) []event {
	var out []event
	for r.arrivals > 0 && r.nextAt < t1 {
		i := r.nextIdx
		bench, k := r.draw.shape(i)
		out = append(out, arrival(r.nextAt, r.seq, bench, k, r.nextAt+r.draw.lifetime(i)))
		r.seq++
		r.arrivals--
		r.nextIdx++
		r.nextAt += r.draw.interarrival(r.nextIdx)
	}
	kept := r.pending[:0]
	for _, d := range r.pending {
		if d.t < t1 {
			out = append(out, d)
		} else {
			kept = append(kept, d)
		}
	}
	r.pending = kept
	slices.SortFunc(out, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.seq, b.seq))
	})
	return out
}

func (r *refStream) schedule(at float64, l lease) {
	r.pending = append(r.pending, event{t: at, seq: r.seq, lease: l})
	r.seq++
}

// nextDue is the earliest time still to come, or false when done.
func (r *refStream) nextDue() (float64, bool) {
	t, ok := math.Inf(1), false
	if r.arrivals > 0 {
		t, ok = r.nextAt, true
	}
	for _, d := range r.pending {
		t, ok = min(t, d.t), true
	}
	return t, ok
}

// TestCalendarMatchesReference drives eventStream and the sort-everything
// reference through adversarial schedules and requires identical batches
// and identical next-due times. Departures tie exactly with the next
// arrival, with an earlier departure and with a bucket boundary; fall due
// already, or inside the bucket the stream is reading; and land on either
// side of the calendar ring's horizon, or beyond it up to 10^6 bucket widths
// out. Take boundaries follow
// strides unaligned with the bucket width, some far shorter than it, some
// leaping many buckets at once.
func TestCalendarMatchesReference(t *testing.T) {
	for _, c := range []struct{ w, rate, life float64 }{
		{0.1, 300, 0.05}, {0.1, 300, 1}, {0.1, 300, 40},
		{1, 300, 0.05}, {1, 300, 1}, {1, 300, 40},
		{2.5, 300, 0.05}, {2.5, 300, 40},
		// Narrow buckets, sparse arrivals: most lifetimes overflow the
		// ring, and the ring empties between arrivals.
		{0.001, 300, 40}, {0.0005, 30, 5},
	} {
		w, life := c.w, c.life
		t.Run(fmt.Sprintf("w=%v/rate=%v/life=%v", w, c.rate, life), func(t *testing.T) {
			s := newEventStream(5, c.rate, life, w, 3000, len(testBenches))
			ref := newRefStream(newEventStream(5, c.rate, life, w, 3000, len(testBenches)))
			h := uint64(w*1000 + life)
			rnd := func() float64 {
				h++
				return unit(splitmix64(h))
			}
			strides := []float64{0.37 * w, 2.9 * w, 0.001 * w, w, 23.7 * w, 1500 * w}
			t1, lastDepart, id := 0.0, 0.0, 0
			for step := 0; !s.done(); step++ {
				got, gok := s.nextDue()
				want, wok := ref.nextDue()
				if got != want || gok != wok {
					t.Fatalf("step %d: nextDue (%v, %v), reference (%v, %v)", step, got, gok, want, wok)
				}
				if s.arrivals == 0 && rnd() < 0.3 {
					t1 = max(t1, want) + rnd()*w // the next batch is never empty
				} else {
					t1 += strides[step%len(strides)] * (0.5 + rnd())
				}
				batch, refBatch := s.take(t1), ref.take(t1)
				if !slices.Equal(batch, refBatch) {
					t.Fatalf("step %d, t1=%v: batch of %d differs from the reference's %d:\n%v\n%v",
						step, t1, len(batch), len(refBatch), batch, refBatch)
				}
				// No-advance rule: a bucket is absorbed only once due.
				if head := s.pending.head; float64(head) > math.Floor(t1/w) {
					t.Fatalf("step %d: take(%v) absorbed bucket %d, past the due bucket %v", step, t1, head, math.Floor(t1/w))
				}
				for _, ev := range batch {
					if !ev.arrive() {
						continue
					}
					var at float64
					switch r := rnd(); {
					case r < 0.1:
						at = s.nextAt // ties with the next arrival
					case r < 0.2:
						at = lastDepart // ties with an earlier departure
					case r < 0.3:
						at = math.Floor(ev.t/w+1) * w // on a bucket boundary
					case r < 0.4:
						at = ev.t - rnd()*w // already due
					case r < 0.5:
						at = math.Floor(t1/w)*w + rnd()*w // in the bucket being read
					case r < 0.55:
						at = ev.t + (1+3*rnd())*ringBuckets*w // beyond the ring
					case r < 0.56:
						at = ev.t + 1e6*w
					case r < 0.62: // straddling the ring's horizon
						at = (float64(s.pending.head+ringBuckets) + 2*rnd()) * w
					default:
						at = ev.depart()
					}
					s.scheduleDeparture(at, lease{machine: int32(id)})
					ref.schedule(at, lease{machine: int32(id)})
					id++
					lastDepart = at
				}
			}
			if _, ok := ref.nextDue(); ok {
				t.Fatal("stream done before the reference")
			}
		})
	}
}

// TestCalendarScripted scripts states that random schedules rarely reach,
// checking every take and next-due time against the reference:
//   - horizon: a departure pushed just beyond the ring's horizon must move
//     into the ring's last bucket as soon as the ring turns over it, before
//     a later departure pushed straight into that bucket is taken;
//   - overflow: with the ring empty, the earliest departure beyond it sits
//     in the sorted overflow while a later one waits unsorted.
func TestCalendarScripted(t *testing.T) {
	const w, r = 1.0, ringBuckets
	type step struct {
		push bool
		t    float64 // departure time, or take boundary
	}
	push := func(t float64) step { return step{true, t} }
	take := func(t float64) step { return step{false, t} }
	for _, c := range []struct {
		name  string
		steps []step
	}{
		{"horizon", []step{
			push(0.5), push(r + 0.5), take(1),
			push(r + 0.7), take(r + 1),
		}},
		{"overflow", []step{
			push(0.5), push(r + 0.6), push(2.5 * r), take(1),
			take(r + 1), // ring empty, far holds 2.5r
			push(2.6 * r), take(2.5*r + 1), take(2.6*r + 1),
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newEventStream(1, 1, 1, w, 0, len(testBenches))
			ref := newRefStream(newEventStream(1, 1, 1, w, 0, len(testBenches)))
			for i, st := range c.steps {
				if st.push {
					s.scheduleDeparture(st.t, lease{machine: int32(i)})
					ref.schedule(st.t, lease{machine: int32(i)})
					continue
				}
				got, gok := s.nextDue()
				want, wok := ref.nextDue()
				if got != want || gok != wok {
					t.Fatalf("step %d: nextDue (%v, %v), reference (%v, %v)", i, got, gok, want, wok)
				}
				if got, want := s.take(st.t), ref.take(st.t); !slices.Equal(got, want) {
					t.Fatalf("step %d: take(%v) = %v, want %v", i, st.t, got, want)
				}
			}
			if !s.done() {
				t.Fatal("departures left over")
			}
		})
	}
}

// TestCalendarFarFutureBounded steps epoch by epoch past a departure
// scheduled 10^6 bucket widths ahead, as a Run without the empty-epoch skip
// would: the calendar must neither allocate per empty epoch nor keep a
// bucket per epoch, and must deliver the departure exactly once, on time.
func TestCalendarFarFutureBounded(t *testing.T) {
	const w = 0.5
	s := newEventStream(1, 1, 1, w, 0, len(testBenches))
	s.scheduleDeparture(w/3, lease{machine: 1})
	s.scheduleDeparture(1e6*w+w/3, lease{machine: 2})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var got []event
	for e := 0; !s.done(); e++ {
		got = append(got, s.take(float64(e)*w+w)...)
		if e > 1e6+1 {
			t.Fatalf("departure not delivered by epoch %d", e)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("stepping 10^6 epochs allocated %d bytes", grew)
	}
	if len(s.pending.slab) > 2 {
		t.Errorf("calendar holds %d chunks for 2 departures", len(s.pending.slab))
	}
	if len(got) != 2 || got[0].lease.machine != 1 || got[1].lease.machine != 2 || got[1].t != 1e6*w+w/3 {
		t.Fatalf("delivered %+v", got)
	}
}

// TestDepartureQueueAllocsZero pins BenchmarkDepartureQueue's 0 allocs/op
// as a test: steady-state push + take on the departure calendar, counted
// per op as the benchmark counts it. Not strictly zero over a batch: the
// calendar takes one more chunk whenever the random pending population
// reaches a new peak, which a steady stream still does now and then.
func TestDepartureQueueAllocsZero(t *testing.T) {
	c := newDepartureChurn()
	if n := testing.AllocsPerRun(30_000, c.step); n != 0 {
		t.Errorf("%v allocations per departure-queue op, want 0", n)
	}
}

// Event-stream fuzz inputs: byte 0 picks the bucket width, byte 1 the
// number of arrivals, and each later 3-byte group [op, x, y] is one step
// with argument v = x | y<<8 (see FuzzEventStream).
const (
	fuzzPush  = iota // one departure at bucket(now) + int16(v)/16 widths; op bit 2: at the next arrival
	fuzzBurst        // x+1 departures in bucket(now) + y; op bit 2: all at one time
	fuzzTake         // take up to now + v/64 widths
	fuzzFar          // one departure v ring lengths (v = 0: 10^6 widths) past now
)

// streamFuzzWidths are the bucket widths an input can pick.
var streamFuzzWidths = [...]float64{1, 0.1, 0.3, 2.5}

// streamFuzzMaxSteps and streamFuzzMaxPushes bound one exec: the reference
// re-sorts its whole pending set on every take.
const streamFuzzMaxSteps, streamFuzzMaxPushes = 1024, 4096

// streamFuzzOp encodes one step.
func streamFuzzOp(op byte, v int) []byte { return []byte{op, byte(v), byte(v >> 8)} }

// FuzzEventStream decodes bytes into departure schedules and takes on an
// eventStream and on refStream, the sort-everything reference, and demands
// identical batches and next-due times after every take, then again once a
// final take drains both. Departures land on a 1/16-width grid around the
// bucket being read, so they tie exactly with each other and with bucket
// boundaries, or exactly on the next arrival's time, fall due already or inside the bucket being read, and reach
// past the ring on both sides; bursts fill one bucket to a chosen size,
// optionally at a single time; far pushes go beyond the ring. The seeds
// reach the chunk-direct sort's edges, so plain `go test` exercises them.
func FuzzEventStream(f *testing.F) {
	in := func(width, arrivals int, steps ...[]byte) []byte {
		return append([]byte{byte(width), byte(arrivals)}, slices.Concat(steps...)...)
	}
	push := func(sixteenths int) []byte { return streamFuzzOp(fuzzPush, sixteenths&0xFFFF) }
	burst := func(n, ahead int, sameT bool) []byte {
		op := byte(fuzzBurst)
		if sameT {
			op |= 4
		}
		return []byte{op, byte(n - 1), byte(ahead)}
	}
	take := func(sixtyFourths int) []byte { return streamFuzzOp(fuzzTake, sixtyFourths) }
	far := func(rings int) []byte { return streamFuzzOp(fuzzFar, rings) }
	// Buckets of chunkCap-1, chunkCap and chunkCap+1 departures, each sorted
	// by the spread path, then the same sizes at one time apiece (the
	// insertion-sort fallback).
	for _, sameT := range []bool{false, true} {
		f.Add(in(0, 0,
			burst(chunkCap-1, 1, sameT), burst(chunkCap, 2, sameT), burst(chunkCap+1, 3, sameT),
			take(64), take(64), take(64), take(64), take(64)))
	}
	// Early and late: read into a bucket, then push behind the read point,
	// into the bucket being read and on its boundaries, among arrivals;
	// push ahead of the read point there twice, so the second push merges
	// into a late run still unread; then a burst of chunkCap+1 into the
	// bucket being read, which reaches the sort as a two-chunk early list.
	f.Add(in(1, 40,
		push(4), push(8), push(16), push(24), take(32),
		push(-8), push(0), push(4), push(8), push(16), push(-40), take(8),
		push(12), take(4), push(14), push(13), take(4),
		burst(chunkCap+1, 0, false), push(12), take(16), take(64), take(640)))
	// Overflow: departures past the ring, one 10^6 widths out, a burst on
	// the ring's horizon, and takes that leap whole rings at once.
	f.Add(in(2, 10,
		far(1), far(3), far(0), push(ringBuckets*16+8), push(ringBuckets*16-8),
		burst(chunkCap, 255, false), take(64), take(ringBuckets*64), push(-16), take(3*ringBuckets*64)))
	// Ties with arrivals: departures at the next arrival's exact time must
	// precede it, in the run read in bulk and in the late run alike.
	atArrival := []byte{fuzzPush | 4, 0, 0}
	f.Add(in(3, 255, burst(200, 0, false), take(1), push(0), take(1), burst(2, 0, true), take(64),
		atArrival, atArrival, take(64), atArrival, take(1), atArrival, take(64)))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		w := streamFuzzWidths[in[0]%byte(len(streamFuzzWidths))]
		events := 2 * int(in[1])
		s := newEventStream(5, 8/w, w, w, events, len(testBenches))
		ref := newRefStream(newEventStream(5, 8/w, w, w, events, len(testBenches)))
		now, pushed := 0.0, 0
		schedule := func(at float64) {
			s.scheduleDeparture(at, lease{machine: int32(pushed)})
			ref.schedule(at, lease{machine: int32(pushed)})
			pushed++
		}
		check := func(step int, t1 float64) {
			got, gok := s.nextDue()
			want, wok := ref.nextDue()
			if gok != wok || gok && got != want {
				t.Fatalf("step %d: nextDue (%v, %v), reference (%v, %v)", step, got, gok, want, wok)
			}
			if batch, refBatch := s.take(t1), ref.take(t1); !slices.Equal(batch, refBatch) {
				t.Fatalf("step %d, t1=%v: batch of %d differs from the reference's %d:\n%v\n%v",
					step, t1, len(batch), len(refBatch), batch, refBatch)
			}
			if head := s.pending.head; !math.IsInf(t1, 1) && float64(head) > math.Floor(t1/w) {
				t.Fatalf("step %d: take(%v) absorbed bucket %d, past the due bucket %v", step, t1, head, math.Floor(t1/w))
			}
		}
		ops := in[2:]
		for step := 0; step < streamFuzzMaxSteps && len(ops) >= 3; step++ {
			op, x, y := ops[0], ops[1], ops[2]
			ops = ops[3:]
			v := int(x) | int(y)<<8
			base := math.Floor(now / w)
			switch op % 4 {
			case fuzzPush:
				switch {
				case pushed == streamFuzzMaxPushes:
				case op&4 != 0 && s.arrivals > 0:
					schedule(s.nextAt)
				default:
					schedule((base + float64(int16(v))/16) * w)
				}
			case fuzzBurst:
				b := base + float64(y)
				for range int(x) + 1 {
					if pushed == streamFuzzMaxPushes {
						break
					}
					frac := unit(splitmix64(uint64(pushed)))
					if op&4 != 0 {
						frac = 0.5
					}
					schedule((b + frac) * w)
				}
			case fuzzTake:
				now += float64(v) / 64 * w
				check(step, now)
			case fuzzFar:
				if pushed < streamFuzzMaxPushes {
					ahead := float64(v) * ringBuckets
					if v == 0 {
						ahead = 1e6
					}
					schedule(now + ahead*w)
				}
			}
		}
		check(-1, math.Inf(1))
		if !s.done() {
			t.Fatal("stream not done after taking everything")
		}
	})
}
