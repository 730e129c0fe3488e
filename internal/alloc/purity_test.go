package alloc_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/fleet"
	"sharing/internal/market"
)

// TestPurityOnNonBasinSurfaces is the regression test for the purity
// decision. The closed-form fleet surfaces are NOT all basin-shaped, so a
// hill-climb's converged optimum can depend on its start; had bids
// warm-started from racy hints, concurrent results would have depended on
// scheduling. With the start an explicit input — the fixed lattice start
// for PriceBid, the caller's for PriceBidAt — every concurrent bid must
// match a sequential pricing of the same request on a fresh allocator, on
// every surface, repeatably.
func TestPurityOnNonBasinSurfaces(t *testing.T) {
	p := alloc.Params{
		Slices:  []int{1, 2, 3, 4, 5, 6, 7, 8},
		CacheKB: []int{0, 64, 128, 256, 512, 1024, 2048, 4096, 8192},
	}
	a, err := alloc.New(p, fleet.SyntheticProber{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := alloc.New(p, fleet.SyntheticProber{})
	if err != nil {
		t.Fatal(err)
	}

	type bidCase struct {
		bench string
		u     econ.Utility
		m     econ.Market
		start econ.Config // zero: PriceBid's fixed start
	}
	starts := []econ.Config{{}, {Slices: 1, CacheKB: 0}, {Slices: 8, CacheKB: 8192}, {Slices: 3, CacheKB: 1024}}
	var cases []bidCase
	for i := 0; i < 16; i++ {
		bench := fmt.Sprintf("syn-%02d", i)
		for _, u := range econ.Utilities() {
			for mi, m := range econ.Markets() {
				cases = append(cases, bidCase{bench, u, m, starts[(i+mi)%len(starts)]})
			}
		}
	}
	price := func(a *alloc.Allocator, c bidCase) (market.BidResult, error) {
		if c.start == (econ.Config{}) {
			return a.PriceBid(c.bench, c.u, c.m)
		}
		return a.PriceBidAt(c.bench, c.u, c.m, c.start, nil)
	}
	want := make([]market.BidResult, len(cases))
	for i, c := range cases {
		br, err := price(ref, c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = alloc.NormalizeBid(br)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 2*len(cases); r++ {
				i := (g*31 + r) % len(cases)
				c := cases[i]
				br, err := price(a, c)
				if err != nil {
					errs <- err
					return
				}
				if got := alloc.NormalizeBid(br); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("%s/%s/%s from %v: concurrent %+v != sequential %+v",
						c.bench, c.m.Name, c.u, c.start, got, want[i])
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
