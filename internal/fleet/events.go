package fleet

import "math"

// The synthetic VM lifecycle stream. Arrivals are a Poisson process
// (exponential inter-arrival times) and lifetimes are exponential, both
// drawn from SplitMix64 hashes of (seed, index): no math/rand, no global
// state, so the stream is a pure function of Params and identical across
// schedules, platforms, and replays.

// event is one VM lifecycle event in the global (time, seq) total order: a
// pointer-free 32-byte record (TestEventLayout). The calendar's chunks and
// take's batch hold it unchanged, so a due departure reaches placement as
// one 32-byte copy.
//
// lease is the 16-byte payload. A departure carries the lease it releases.
// An arrival carries its draw (see arrival) and complements the machine
// field, so a negative machine marks an arriving VM.
type event struct {
	t     float64
	seq   int
	lease lease
}

// arrival builds an arrival's record: ^bench in machine, the utility
// exponent in slices, the absolute departure time (if the VM places) in
// perf.
func arrival(t float64, seq int, bench int32, k uint16, depart float64) event {
	return event{t: t, seq: seq, lease: lease{machine: ^bench, slices: k, perf: depart}}
}

func (e *event) arrive() bool                   { return e.lease.machine < 0 }
func (e *event) bench() int                     { return int(^e.lease.machine) } // position in Params.Benches
func (e *event) k() int                         { return int(e.lease.slices) }   // utility exponent, 1..utilityExps
func (e *event) depart() float64                { return e.lease.perf }
func (e *event) before(t float64, seq int) bool { return precedes(e.t, e.seq, t, seq) }

// precedes is the (time, seq) order: whether (t0, seq0) comes before (t, seq).
func precedes(t0 float64, seq0 int, t float64, seq int) bool {
	return t0 < t || (t0 == t && seq0 < seq)
}

// utilityExps is the number of utility exponents bids draw from.
const utilityExps = 3

// lease is what a placed VM holds on its machine: all its departure needs,
// in 16 pointer-free bytes. Params validation keeps machine IDs within int32
// and a chip's Slices and banks within uint16.
type lease struct {
	machine       int32
	slices, banks uint16
	perf          float64 // measured IPC at the leased config
}

// newLease narrows a placement into a lease. Params.defaults bounds machine
// IDs by math.MaxInt32 and chip sizes by math.MaxUint16, and a placed VCore
// fits its chip, so the masks never drop a bit.
func newLease(machine, slices, banks int, perf float64) lease {
	return lease{
		machine: int32(machine & math.MaxInt32),
		slices:  uint16(slices & math.MaxUint16),
		banks:   uint16(banks & math.MaxUint16),
		perf:    perf,
	}
}

// splitmix64 is the finalizer of Steele, Lea and Flood's SplitMix64
// generator: a bijective mix of a 64-bit word.
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
// placement schedules. take returns every event due before a given time in
// (time, seq) order by merging the arrivals, which are generated in that
// order, with the due departures of an epoch-keyed calendar queue; the
// calendar's content at each epoch is itself deterministic (departures are
// scheduled only during placement, in event order), so the whole stream is
// a pure function of Params.
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
func (s *eventStream) shape(i int) (int32, uint16) {
	h := splitmix64(s.seed + 0x9e3779b97f4a7c15*uint64(i+1))
	return int32(h % uint64(s.benches)), uint16(1 + (h>>32)%utilityExps)
}

// take returns all events due strictly before t1, in (time, seq) order. The
// batch is only valid until the next call.
func (s *eventStream) take(t1 float64) []event {
	out := s.out[:0]
	for s.arrivals > 0 && s.nextAt < t1 {
		// Departures ordered before this arrival go first. Their seqs were
		// assigned in earlier epochs, so on an exact time tie they win.
		out = s.pending.popBefore(out, s.nextAt, s.seq)
		i := s.nextIdx
		bench, k := s.shape(i)
		out = append(out, arrival(s.nextAt, s.seq, bench, k, s.nextAt+s.lifetime(i)))
		s.seq++
		s.arrivals--
		s.nextIdx++
		s.nextAt += s.interarrival(s.nextIdx)
	}
	// Every seq is >= 0, so (t1, 0) admits exactly the departures before t1.
	out = s.pending.popBefore(out, t1, 0)
	if n := len(out); n > 0 && out[n-1].t > s.maxT {
		s.maxT = out[n-1].t
	}
	s.out = out
	return out
}

// scheduleDeparture registers a placed VM's departure, carrying its lease.
// Called only from placement, in deterministic event order.
//
//ssim:hotpath
func (s *eventStream) scheduleDeparture(at float64, l lease) {
	s.pending.push(event{t: at, seq: s.seq, lease: l})
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
