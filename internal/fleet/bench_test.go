package fleet

import (
	"math"
	"testing"
)

// BenchmarkFleet2000x20000 is the acceptance-scale run: 2,000 machines,
// 20,000 VM lifecycle events, synthetic surfaces. The interesting outputs —
// wall time, events/s, and the probe economy against the naive per-bid grid
// sweep — are reported by `make bench-fleet`.
func BenchmarkFleet2000x20000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := New(Params{
			Machines:       2000,
			Events:         20000,
			ArrivalsPerSec: 500,
			MeanLifetime:   10,
			Seed:           7,
			Benches:        testBenches,
		}, SyntheticProber{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Events), "events")
			b.ReportMetric(float64(rep.UniqueProbes), "probes")
		}
	}
}

// BenchmarkFleetEpoch measures the steady-state per-epoch cost at modest
// scale (what an interactive sweep pays).
func BenchmarkFleetEpoch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := New(testBenchParams(), SyntheticProber{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// departureChurn drives the departure calendar alone at the fleet
// workload's steady state: 10,000 placements/s with a mean lifetime of 10 s
// hold ~100,000 departures pending, in 1 s buckets. One step schedules a
// departure and takes the stream up to the next placement, which delivers
// one departure on average (and, once per bucket, sorts that bucket).
type departureChurn struct {
	s   *eventStream
	now float64
	h   uint64
}

const churnRate, churnLife, churnEpoch = 10_000.0, 10.0, 1.0

func newDepartureChurn() *departureChurn {
	c := &departureChurn{s: newEventStream(1, churnRate, churnLife, churnEpoch, 0, len(testBenches))}
	for range 1_000_000 { // ten mean lifetimes: the pending set is at steady state
		c.step()
	}
	return c
}

func (c *departureChurn) step() {
	c.now += 1 / churnRate
	c.h++
	c.s.scheduleDeparture(c.now-math.Log(unit(splitmix64(c.h)))*churnLife, lease{machine: int32(c.h % 20000)})
	c.s.take(c.now)
}

// BenchmarkDepartureQueue measures one departureChurn step. allocs/op must
// stay 0 (TestDepartureQueueAllocsZero).
func BenchmarkDepartureQueue(b *testing.B) {
	c := newDepartureChurn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step()
	}
	b.ReportMetric(float64(c.s.pending.n), "pending")
}

func testBenchParams() Params {
	return Params{
		Machines:       256,
		Events:         2000,
		ArrivalsPerSec: 100,
		MeanLifetime:   5,
		Seed:           7,
		Benches:        testBenches,
	}
}

// placerChurn drives a placement index at the fleet workload's scale:
// 20,000 64-Slice/128-bank machines and a ring of 100,000 leases, the fleet
// workload's steady-state population (10,000 arrivals/s, mean lifetime
// 10 s), drawn from the (Slices, banks) mix its adaptive-price run places:
// (1, 0) 39%, (8, 16) 24%, (8, 8) 21%, (8, 0) 11%, (8, 32) 5% — about 41% of
// the Slices and 27% of the banks, with nothing rejected.
type placerChurn struct {
	p    *placer
	h    uint64
	ring []lease
	next int // the oldest lease in ring
}

func newPlacerChurn(policy Placement) *placerChurn {
	const machines, chipSlices, chipBanks = 20000, 64, 128
	c := &placerChurn{p: newPlacer(machines, chipSlices, chipBanks, policy), h: 1}
	c.ring = make([]lease, 0, 100_000)
	for len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, c.place())
	}
	return c
}

// place picks and allocates the next lease of the mix (machine -1: rejected).
func (c *placerChurn) place() lease {
	c.h++
	slices, banks := 8, 0
	switch r := splitmix64(c.h) % 100; {
	case r < 39:
		slices = 1
	case r < 63:
		banks = 16
	case r < 84:
		banks = 8
	case r < 95:
		// (8, 0)
	default:
		banks = 32
	}
	m := c.p.pick(slices, banks)
	if m < 0 {
		return lease{machine: -1}
	}
	l := newLease(m, slices, banks, 0)
	c.p.alloc(l)
	return l
}

// step frees the oldest lease in the ring and places a new one in its slot.
func (c *placerChurn) step() {
	if l := c.ring[c.next]; l.machine >= 0 {
		c.p.free(l)
	}
	c.ring[c.next] = c.place()
	c.next = (c.next + 1) % len(c.ring)
}

// BenchmarkPlacer measures the placement index alone under placerChurn: each
// op frees the oldest lease and places a new one (free + pick + alloc).
// A scan reads a bucket's summary first, so it costs O(machines/4096 +
// nonzero words) per bucket visited, whatever the length of the bucket's
// empty prefix. allocs/op must stay 0 (TestPlacerAllocsZero).
func BenchmarkPlacer(b *testing.B) {
	for _, policy := range []Placement{PlacePacked, PlaceSpread} {
		b.Run(policy.String(), func(b *testing.B) {
			c := newPlacerChurn(policy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.step()
			}
		})
	}
}
