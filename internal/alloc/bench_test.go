package alloc

import (
	"testing"

	"sharing/internal/econ"
)

// Benchmarks for the serving hot path. perfbench's serve-bid workload
// measures the same path end to end through HTTP; these isolate the library
// cost: a warm bid is an exact lattice search served entirely from
// lock-free cache snapshots.

func benchAlloc(b *testing.B) *Allocator {
	b.Helper()
	a, err := New(testParams(), &raceProber{})
	if err != nil {
		b.Fatal(err)
	}
	// Warm every surface the workload touches.
	for bench := range benchPerf {
		for _, m := range econ.Markets() {
			if _, err := a.PriceBid(bench, econ.Utility2(), m); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	return a
}

func BenchmarkPriceBidWarm(b *testing.B) {
	a := benchAlloc(b)
	m := econ.Market2()
	u := econ.Utility2()
	for i := 0; i < b.N; i++ {
		if _, err := a.PriceBid("mixed", u, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPriceBidWarmParallel(b *testing.B) {
	a := benchAlloc(b)
	cases := bidWorkload()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c := cases[i%len(cases)]
			i++
			if _, err := a.PriceBid(c.bench, c.u, c.m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkArriveDepartChurn(b *testing.B) {
	a := benchAlloc(b)
	if _, err := a.Arrive("anchor", "cachey", econ.Utility1()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Arrive("vm", "mixed", econ.Utility2()); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Depart("vm"); err != nil {
			b.Fatal(err)
		}
	}
}
