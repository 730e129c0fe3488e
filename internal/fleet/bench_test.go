package fleet

import (
	"math"
	"testing"
)

// BenchmarkFleet2000x20000 is the acceptance-scale run: 2,000 machines,
// 20,000 VM lifecycle events, synthetic surfaces. The interesting outputs —
// wall time, events/s, and the probe economy against the naive per-bid grid
// sweep — land in BENCH_ssim.json's "fleet" block via `make bench-fleet`.
func BenchmarkFleet2000x20000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := New(Params{
			Machines:       2000,
			Shards:         4,
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

// BenchmarkDepartureQueue measures the departure calendar alone at the
// fleet workload's steady state: 10,000 placements/s with a mean lifetime of
// 10 s hold ~100,000 departures pending, in 1 s buckets. One op schedules a
// departure and takes the stream up to the next placement, which delivers
// one departure on average (and, once per bucket, sorts that bucket).
// allocs/op must stay 0.
func BenchmarkDepartureQueue(b *testing.B) {
	const rate, life, epoch = 10_000.0, 10.0, 1.0
	s := newEventStream(1, rate, life, epoch, 0, len(testBenches))
	now, h := 0.0, uint64(0)
	op := func() {
		now += 1 / rate
		h++
		s.scheduleDeparture(now-math.Log(unit(splitmix64(h)))*life, lease{machine: int(h % 20000)})
		s.take(now)
	}
	for range 1_000_000 { // ten mean lifetimes: the pending set is at steady state
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(s.pending.n), "pending")
}

func testBenchParams() Params {
	return Params{
		Machines:       256,
		Shards:         4,
		Events:         2000,
		ArrivalsPerSec: 100,
		MeanLifetime:   5,
		Seed:           7,
		Benches:        testBenches,
	}
}

// BenchmarkPlacer measures the placement index alone at the fleet
// workload's scale: 20,000 64-Slice/128-bank machines, each op freeing the
// oldest of a ring of leases and placing a new one (pick + alloc). The ring
// holds 100,000 leases, the fleet workload's steady-state population (10,000
// arrivals/s, mean lifetime 10 s), drawn from the (Slices, banks) mix its
// adaptive-price run places: (1, 0) 39%, (8, 16) 24%, (8, 8) 21%, (8, 0) 11%,
// (8, 32) 5% — about 41% of the Slices and 27% of the banks, with nothing
// rejected. allocs/op must stay 0.
func BenchmarkPlacer(b *testing.B) {
	const machines, chipSlices, chipBanks = 20000, 64, 128
	for _, policy := range []Placement{PlacePacked, PlaceSpread} {
		b.Run(policy.String(), func(b *testing.B) {
			p := newPlacer(machines, chipSlices, chipBanks, policy)
			h := uint64(1)
			place := func() lease {
				h++
				slices, banks := 8, 0
				switch r := splitmix64(h) % 100; {
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
				m := p.pick(slices, banks)
				if m < 0 {
					return lease{machine: -1}
				}
				l := lease{machine: m, slices: slices, banks: banks}
				p.alloc(l)
				return l
			}
			ring := make([]lease, 0, 100_000)
			for len(ring) < cap(ring) {
				ring = append(ring, place())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(ring)
				if l := ring[j]; l.machine >= 0 {
					p.free(l)
				}
				ring[j] = place()
			}
		})
	}
}
