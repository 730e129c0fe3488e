package experiments

import (
	"reflect"
	"testing"

	"sharing/internal/econ"
	"sharing/internal/workload"
)

// diffProfiles returns the benchmark set for the incremental-vs-grid
// differential: everything in non-short mode, a 3-profile cross-section
// (cache lover, compute lover, phased) under -short.
func diffProfiles(t *testing.T) []string {
	t.Helper()
	if testing.Short() {
		return []string{"mcf", "sjeng", "gcc"}
	}
	return workload.Names()
}

// TestIncrementalBidMatchesGrid is the exactness guard of the allocation
// core: for every workload profile, market, and utility family, the pure
// fixed-start bid must land on the identical configuration and utility as
// the full-grid sweep — while the warm re-bid stream probes >= 10x fewer
// surface points than the 47+-point grid (72 here). The allocator probes
// the runner that measured the grids, so it never simulates; its probe
// economy is the surface cache's misses, each of which would be one
// simulator run on a cold runner.
func TestIncrementalBidMatchesGrid(t *testing.T) {
	names := diffProfiles(t)

	r := tiny(t)
	suite, err := r.SuiteGrids(names, StdSlices, StdCaches)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAllocator(r, econ.Supply{})
	if err != nil {
		t.Fatal(err)
	}

	// First pass: every (bench, market, utility) — cold per surface.
	for _, b := range names {
		for _, m := range econ.Markets() {
			for _, u := range econ.Utilities() {
				bid, err := a.PriceBid(b, u, m)
				if err != nil {
					t.Fatal(err)
				}
				wantCfg, wantU := u.Best(m, suite[b])
				if bid.Config != wantCfg {
					t.Errorf("%s/%s/U%d: incremental %v != grid %v", b, m.Name, u.K, bid.Config, wantCfg)
				}
				if bid.Utility != wantU {
					t.Errorf("%s/%s/U%d: utility %v != %v", b, m.Name, u.K, bid.Utility, wantU)
				}
			}
		}
	}
	coldProbes := a.Stats().CacheMisses
	gridProbes := int64(len(names) * len(StdSlices) * len(StdCaches))
	if coldProbes >= gridProbes {
		t.Errorf("cold pass probed %d points, no better than the %d grid measurements", coldProbes, gridProbes)
	}

	// Second pass: the warm bid stream. Every surface is memoized, so the
	// whole pass must cost (close to) zero probes; the gate is >= 10x under
	// the grid per warm bid.
	warmBids := 0
	for _, b := range names {
		for _, m := range econ.Markets() {
			for _, u := range econ.Utilities() {
				bid, err := a.PriceBid(b, u, m)
				if err != nil {
					t.Fatal(err)
				}
				wantCfg, _ := u.Best(m, suite[b])
				if bid.Config != wantCfg {
					t.Errorf("%s/%s/U%d: warm bid %v != grid %v", b, m.Name, u.K, bid.Config, wantCfg)
				}
				warmBids++
			}
		}
	}
	warmProbes := a.Stats().CacheMisses - coldProbes
	lattice := int64(len(StdSlices) * len(StdCaches))
	if float64(warmProbes)/float64(warmBids) > float64(lattice)/10 {
		t.Errorf("warm bids averaged %.2f probes each, gate is <= %.1f (10x under the %d-point grid)",
			float64(warmProbes)/float64(warmBids), float64(lattice)/10, lattice)
	}
	t.Logf("profiles=%d coldProbes=%d warmProbes=%d (%d warm bids) grid=%d",
		len(names), coldProbes, warmProbes, warmBids, gridProbes)
}

// TestChurnScenarioRuns exercises the canned churn driver end to end on a
// small profile set and sanity-checks its accounting.
func TestChurnScenarioRuns(t *testing.T) {
	r := tiny(t)
	names := []string{"gcc", "mcf", "sjeng"}
	rep, err := ChurnScenario(r, names)
	if err != nil {
		t.Fatal(err)
	}
	// 3 arrivals + 2 departures + 2 re-arrivals + 2 phase changes.
	if len(rep.Events) != 9 {
		t.Fatalf("%d events, want 9: %+v", len(rep.Events), rep.Events)
	}
	var probes, runs int64
	for _, ev := range rep.Events {
		probes += ev.Probes
		runs += ev.SimRuns
	}
	if probes != rep.Stats.CacheMisses {
		t.Fatalf("event probes %d != stats %d", probes, rep.Stats.CacheMisses)
	}
	if runs != rep.SimRuns {
		t.Fatalf("event sim runs %d != total %d", runs, rep.SimRuns)
	}
	// The departed half re-arrives on warm memos: those re-arrivals must be
	// (nearly) free in simulator runs.
	var rearrive int64
	seen := map[string]bool{}
	for _, ev := range rep.Events {
		if ev.Action == "arrive" && seen[ev.Customer] {
			rearrive += ev.SimRuns
		}
		if ev.Action == "arrive" {
			seen[ev.Customer] = true
		}
	}
	if rearrive > 0 {
		t.Errorf("re-arrivals cost %d simulator runs, want 0 (memoized surfaces)", rearrive)
	}
	if rep.SimRuns > int64(rep.GridSimRuns) {
		t.Errorf("churn ran %d simulations, above the %d grid ceiling", rep.SimRuns, rep.GridSimRuns)
	}
	// The supply must make banks bind: some clearing's root lies inside the
	// ratio bracket, so it took more than one demand evaluation and priced
	// banks above the bracket floor of 2^-40 times the Slice price.
	inside := 0
	for _, ev := range rep.Events {
		if ev.Iterations > 1 && ev.Prices.BankCost > 0x1p-40*ev.Prices.SliceCost {
			inside++
		}
	}
	if inside == 0 {
		t.Errorf("no clearing priced banks inside the bracket: %+v", rep.Events)
	}
	t.Logf("churn: %d events, %d sim runs vs %d grid, %d epochs, %d clearings inside the bracket",
		len(rep.Events), rep.SimRuns, rep.GridSimRuns, rep.Stats.Epochs, inside)
}

// TestChurnByteIdenticalVsScratchSim: the full-stack churn identity — the
// allocator over the real simulator must produce allocations byte-identical
// to from-scratch clearing over measured grids, including mid-stream churn.
func TestChurnByteIdenticalVsScratchSim(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple grid sweeps")
	}
	names := []string{"mcf", "sjeng"}
	supply := econ.Supply{Slices: 64, Banks: 128}

	rG := tiny(t)
	suite, err := rG.SuiteGrids(names, StdSlices, StdCaches)
	if err != nil {
		t.Fatal(err)
	}

	rE := tiny(t)
	a, err := NewAllocator(rE, supply)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Arrive("a", "mcf", econ.Utility1()); err != nil {
		t.Fatal(err)
	}
	rc, err := a.Arrive("b", "sjeng", econ.Utility3())
	if err != nil {
		t.Fatal(err)
	}
	got := rc.Result
	want, err := econ.ClearMarket([]econ.Customer{
		{Name: "a", Perf: suite["mcf"], Utility: econ.Utility1()},
		{Name: "b", Perf: suite["sjeng"], Utility: econ.Utility3()},
	}, supply)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental clearing diverged from scratch over simulator grids\n got: %+v\nwant: %+v", got, want)
	}

	// Departure: the survivor's from-scratch clearing must match too.
	rc, err = a.Depart("b")
	if err != nil {
		t.Fatal(err)
	}
	got2 := rc.Result
	want2, err := econ.ClearMarket([]econ.Customer{
		{Name: "a", Perf: suite["mcf"], Utility: econ.Utility1()},
	}, supply)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want2) {
		t.Fatalf("post-departure clearing diverged\n got: %+v\nwant: %+v", got2, want2)
	}
}

// BenchmarkIncrementalBid measures one warm bid through the full stack
// (allocator + runner cache): the steady-state cost of pricing a customer.
func BenchmarkIncrementalBid(b *testing.B) {
	r := NewRunner()
	r.TraceLen = 8000
	r.Seed = 7
	a, err := NewAllocator(r, econ.Supply{})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the surface.
	if _, err := a.PriceBid("mcf", econ.Utility2(), econ.Market2()); err != nil {
		b.Fatal(err)
	}
	runsBefore, lookupsBefore := r.SimRuns(), a.Stats().ProbeLookups
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := econ.Utilities()[i%3]
		m := econ.Markets()[i%3]
		if _, err := a.PriceBid("mcf", u, m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := a.Stats()
	b.ReportMetric(float64(st.ProbeLookups-lookupsBefore)/float64(b.N), "lookups/bid")
	b.ReportMetric(float64(r.SimRuns()-runsBefore)/float64(b.N), "simruns/bid")
}

// BenchmarkGridBid is the batch baseline for one bid: sweep the full grid,
// then pick the optimum (fresh runner per iteration, so the sweep is real).
func BenchmarkGridBid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := NewRunner()
		r.TraceLen = 8000
		r.Seed = 7
		g, err := r.Grid("mcf", StdSlices, StdCaches)
		if err != nil {
			b.Fatal(err)
		}
		econ.Utility2().Best(econ.Market2(), g)
	}
	b.ReportMetric(float64(len(StdSlices)*len(StdCaches)), "simruns/bid")
}

// BenchmarkMarketChurn measures one full arrival/departure churn round over
// warm surfaces.
func BenchmarkMarketChurn(b *testing.B) {
	r := NewRunner()
	r.TraceLen = 8000
	r.Seed = 7
	supply := econ.Supply{Slices: 64, Banks: 128}
	a, err := NewAllocator(r, supply)
	if err != nil {
		b.Fatal(err)
	}
	// Residents + a first churn round to warm every surface.
	if _, err := a.Arrive("r1", "mcf", econ.Utility1()); err != nil {
		b.Fatal(err)
	}
	if _, err := a.Arrive("r2", "sjeng", econ.Utility3()); err != nil {
		b.Fatal(err)
	}
	if _, err := a.Arrive("churner", "astar", econ.Utility2()); err != nil {
		b.Fatal(err)
	}
	if _, err := a.Depart("churner"); err != nil {
		b.Fatal(err)
	}
	runsBefore, lookupsBefore := r.SimRuns(), a.Stats().ProbeLookups
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Arrive("churner", "astar", econ.Utility2()); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Depart("churner"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := a.Stats()
	b.ReportMetric(float64(st.ProbeLookups-lookupsBefore)/float64(b.N), "lookups/churn")
	b.ReportMetric(float64(r.SimRuns()-runsBefore)/float64(b.N), "simruns/churn")
}
