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
// Pointer-free, so the GC never scans the departure calendar that carries it.
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
// that order, with the due departures of an epoch-keyed calendar queue; the
// calendar's content at each barrier is itself deterministic (departures are
// scheduled only at barriers, in event order), so the whole stream is
// shard-count-independent.
type eventStream struct {
	seed     uint64
	rate     float64 // arrivals per second
	life     float64 // mean lifetime seconds
	benches  int     // len(Params.Benches)
	arrivals int     // arrivals still to generate
	nextIdx  int     // index of the next arrival (drives the hash stream)
	nextAt   float64
	seq      int
	pending  calendar // scheduled departures
	out      []event  // take's batch, reused across epochs
	maxT     float64  // latest event time handed out
}

// newEventStream builds the stream; epoch is the calendar's bucket width.
func newEventStream(seed uint64, rate, life, epoch float64, totalEvents, benches int) *eventStream {
	s := &eventStream{
		seed:     seed,
		rate:     rate,
		life:     life,
		benches:  benches,
		arrivals: totalEvents / 2,
		pending:  newCalendar(epoch),
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
		out = s.departuresBefore(out, s.nextAt, s.seq)
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
	// Every seq is >= 0, so (t1, 0) admits exactly the departures before t1.
	out = s.departuresBefore(out, t1, 0)
	if n := len(out); n > 0 && out[n-1].t > s.maxT {
		s.maxT = out[n-1].t
	}
	s.out = out
	return out
}

// departuresBefore appends, in order, the pending departures that precede
// (t, seq).
//
//ssim:hotpath
func (s *eventStream) departuresBefore(out []event, t float64, seq int) []event {
	for d := s.pending.next(t, seq); d != nil; d = s.pending.next(t, seq) {
		out = append(out, d.event())
		s.pending.pop()
	}
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

// nextDue returns the time of the earliest event still to come, and false
// once the stream is exhausted.
func (s *eventStream) nextDue() (float64, bool) {
	t, ok := s.pending.earliest()
	if s.arrivals > 0 && (!ok || s.nextAt < t) {
		return s.nextAt, true
	}
	return t, ok
}

// done reports whether the stream is exhausted.
func (s *eventStream) done() bool { return s.arrivals == 0 && s.pending.n == 0 }

// end is the simulated end of the run: the latest event time delivered.
func (s *eventStream) end() float64 { return s.maxT }

// departure is a scheduled departure as the calendar holds it.
type departure struct {
	t     float64
	seq   int
	lease lease
}

// before reports whether d precedes the event at (t, seq).
func (d *departure) before(t float64, seq int) bool { return precedes(d.t, d.seq, t, seq) }

// precedes is the (time, seq) order: whether (t0, seq0) comes before (t, seq).
func precedes(t0 float64, seq0 int, t float64, seq int) bool {
	return t0 < t || (t0 == t && seq0 < seq)
}

func (d departure) event() event { return event{t: d.t, seq: d.seq, lease: d.lease} }
