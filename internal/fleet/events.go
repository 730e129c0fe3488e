package fleet

import "math"

// The synthetic VM lifecycle stream. Arrivals are a Poisson process
// (exponential inter-arrival times) and lifetimes are exponential, both
// drawn from SplitMix64 hashes of (seed, index) — the same seed-derived
// determinism discipline as internal/sim's sample schedule, and for the same
// reason: no math/rand, no global state, so the stream is a pure function of
// Params and identical across shard counts, platforms, and replays.

// event is one VM lifecycle event in the global (time, seq) total order.
type event struct {
	t      float64
	seq    int
	arrive bool
	// Arrival-only payload.
	bench  int     // position in Params.Benches
	k      int     // utility exponent, 1..utilityExps
	depart float64 // absolute departure time, if the VM places
	lease  lease   // departure-only: what the VM held
}

// utilityExps is the number of utility exponents bids draw from.
const utilityExps = 3

// lease is what a placed VM holds on its machine: all its departure needs.
// Pointer-free, so the GC never scans the departure heap that carries it.
type lease struct {
	machine, slices, banks int
	perf                   float64 // measured IPC at the leased config
}

// splitmix64 is the SplitMix64 finalizer (see internal/sim/sample.go).
//
//ssim:hotpath
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a hash to (0, 1]: never 0, so -ln(u) is finite.
func unit(h uint64) float64 {
	return (float64(h>>11) + 1) / (1 << 53)
}

// eventStream generates arrivals lazily and carries the departures the
// placement barrier schedules. take returns every event due before a given
// time in (time, seq) order by merging the arrivals, which are generated in
// that order, with the due prefix of a min-heap of departures; the content of
// the pending-departure heap at each barrier is itself deterministic
// (departures are scheduled only at barriers, in event order), so the whole
// stream is shard-count-independent.
type eventStream struct {
	seed     uint64
	rate     float64 // arrivals per second
	life     float64 // mean lifetime seconds
	benches  int     // len(Params.Benches)
	arrivals int     // arrivals still to generate
	nextIdx  int     // index of the next arrival (drives the hash stream)
	nextAt   float64
	seq      int
	pending  departureHeap // scheduled departures
	out      []event       // take's batch, reused across epochs
	maxT     float64       // latest event time handed out
}

func newEventStream(seed uint64, rate, life float64, totalEvents, benches int) *eventStream {
	s := &eventStream{
		seed:     seed,
		rate:     rate,
		life:     life,
		benches:  benches,
		arrivals: totalEvents / 2,
	}
	s.nextAt = s.interarrival(0)
	return s
}

// interarrival draws the gap before arrival i.
func (s *eventStream) interarrival(i int) float64 {
	h := splitmix64(s.seed ^ splitmix64(uint64(i)*2+1))
	return -math.Log(unit(h)) / s.rate
}

// lifetime draws arrival i's VM lifetime.
func (s *eventStream) lifetime(i int) float64 {
	h := splitmix64(s.seed ^ splitmix64(uint64(i)*2+2))
	return -math.Log(unit(h)) * s.life
}

// shape draws arrival i's benchmark index and utility exponent.
func (s *eventStream) shape(i int) (int, int) {
	h := splitmix64(s.seed + 0x9e3779b97f4a7c15*uint64(i+1))
	return int(h % uint64(s.benches)), 1 + int((h>>32)%utilityExps)
}

// take returns all events due strictly before t1, in (time, seq) order. The
// batch is only valid until the next call.
func (s *eventStream) take(t1 float64) []event {
	out := s.out[:0]
	for s.arrivals > 0 && s.nextAt < t1 {
		// Departures ordered before this arrival go first. Their seqs were
		// assigned at earlier barriers, so on an exact time tie they win.
		for len(s.pending) > 0 && s.pending.top().before(s.nextAt, s.seq) {
			out = append(out, s.pending.pop().event())
		}
		i := s.nextIdx
		bench, k := s.shape(i)
		out = append(out, event{
			t: s.nextAt, seq: s.seq, arrive: true,
			bench: bench, k: k, depart: s.nextAt + s.lifetime(i),
		})
		s.seq++
		s.arrivals--
		s.nextIdx++
		s.nextAt += s.interarrival(s.nextIdx)
	}
	for len(s.pending) > 0 && s.pending.top().t < t1 {
		out = append(out, s.pending.pop().event())
	}
	if n := len(out); n > 0 && out[n-1].t > s.maxT {
		s.maxT = out[n-1].t
	}
	s.out = out
	return out
}

// scheduleDeparture registers a placed VM's departure, carrying its lease.
// Called only from the placement barrier, in deterministic event order.
//
//ssim:hotpath
func (s *eventStream) scheduleDeparture(at float64, l lease) {
	s.pending.push(departure{t: at, seq: s.seq, lease: l})
	s.seq++
}

// done reports whether the stream is exhausted.
func (s *eventStream) done() bool { return s.arrivals == 0 && len(s.pending) == 0 }

// end is the simulated end of the run: the latest event time delivered.
func (s *eventStream) end() float64 { return s.maxT }

// departure is a scheduled departure as the heap holds it.
type departure struct {
	t     float64
	seq   int
	lease lease
}

// before reports whether d precedes the event at (t, seq).
func (d *departure) before(t float64, seq int) bool {
	return d.t < t || (d.t == t && d.seq < seq)
}

func (d departure) event() event { return event{t: d.t, seq: d.seq, lease: d.lease} }

// departureHeap is a binary min-heap of departures keyed by (t, seq), a
// total order, so pops come out in exactly the order a sort would give.
// Hand-rolled rather than container/heap: the interface would box every
// element; this reuses its backing array for the whole run.
type departureHeap []departure

func (h departureHeap) top() *departure { return &h[0] }

//ssim:hotpath
func (h *departureHeap) push(d departure) {
	q := append(*h, d)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(q[p].t, q[p].seq) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

//ssim:hotpath
func (h *departureHeap) pop() departure {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && q[l].before(q[m].t, q[m].seq) {
			m = l
		}
		if r < n && q[r].before(q[m].t, q[m].seq) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}
