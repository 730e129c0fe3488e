package alloc

import (
	"reflect"
	"testing"

	"sharing/internal/econ"
	"sharing/internal/hypervisor"
)

// Single-goroutine contracts of the core: one op per epoch, the degenerate
// case of the group-commit path, must clear byte-identically to a
// from-scratch recompute over full grids, and the shared surface memo must
// keep churn and repeat bids cheap in simulator probes.

// scratch recomputes the clearing from scratch with full grids: the batch
// reference the allocator must match byte for byte.
func scratch(t *testing.T, members []econ.Customer) *econ.ClearingResult {
	t.Helper()
	res, err := econ.ClearMarket(members, testSupply, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustEqual(t *testing.T, got, want *econ.ClearingResult, step string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental clearing diverged from scratch recompute\n got: %+v\nwant: %+v", step, got, want)
	}
}

// TestChurnByteIdentical drives an arrival/departure/phase-change sequence
// and asserts after every event that the allocations are byte-identical to
// a from-scratch recompute over full grids.
func TestChurnByteIdentical(t *testing.T) {
	a, _ := newAlloc(t)
	cust := func(name, bench string, u econ.Utility) econ.Customer {
		return econ.Customer{Name: name, Perf: grid(benchPerf[bench]), Utility: u}
	}
	alice, bob, carol := cust("alice", "cachey", econ.Utility1()), cust("bob", "slicey", econ.Utility3()), cust("carol", "cachey", econ.Utility2())
	step := func(rc Receipt, err error) *econ.ClearingResult {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rc.Result
	}

	// Arrival stream; carol shares alice's surface and rides its memo.
	mustEqual(t, step(a.Arrive("alice", "cachey", econ.Utility1())), scratch(t, []econ.Customer{alice}), "arrive alice")
	mustEqual(t, step(a.Arrive("bob", "slicey", econ.Utility3())), scratch(t, []econ.Customer{alice, bob}), "arrive bob")
	mustEqual(t, step(a.Arrive("carol", "cachey", econ.Utility2())), scratch(t, []econ.Customer{alice, bob, carol}), "arrive carol")

	// Departure re-auctions only the survivors.
	mustEqual(t, step(a.Depart("bob")), scratch(t, []econ.Customer{alice, carol}), "depart bob")

	// Phase change mid-stream: dave arrives on the phased benchmark, then
	// switches phases; the reference rebuilds his grid per phase.
	if _, err := a.Arrive("dave", "mixed", econ.Utility2()); err != nil {
		t.Fatal(err)
	}
	dave := func(ph int) econ.Customer {
		return econ.Customer{Name: "dave", Perf: grid(phasePerf[ph]), Utility: econ.Utility2()}
	}
	mustEqual(t, step(a.Reconfigure("dave", 0)), scratch(t, []econ.Customer{alice, carol, dave(0)}), "dave phase 0")
	from, _ := a.VM("dave")

	rc, err := a.Reconfigure("dave", 1)
	mustEqual(t, step(rc, err), scratch(t, []econ.Customer{alice, carol, dave(1)}), "dave phase 1")
	to, _ := a.VM("dave")
	// The phase flip moves dave from a cache-hungry to a compute-hungry
	// optimum; the transition must be priced by the hypervisor's plan.
	if from.Config == to.Config {
		t.Fatalf("phase flip should move dave's optimum (stayed at %v)", from.Config)
	}
	wantPlan := hypervisor.PlanReconfig(from.Config.Slices, from.Config.CacheKB, to.Config.Slices, to.Config.CacheKB)
	if rc.Reconfig == nil || *rc.Reconfig != wantPlan {
		t.Fatalf("reconfig plan %+v, want %+v", rc.Reconfig, wantPlan)
	}
	if rc.Reconfig.Noop() || rc.Reconfig.Cycles == 0 {
		t.Fatalf("non-trivial transition must cost cycles: %+v", rc.Reconfig)
	}

	// Drain the market: the result goes nil.
	for _, name := range []string{"alice", "carol", "dave"} {
		if _, err := a.Depart(name); err != nil {
			t.Fatal(err)
		}
	}
	if v := a.Snapshot(); v.Result != nil || len(v.VMs) != 0 {
		t.Fatalf("empty market must have nil result and no VMs: %+v", v)
	}
}

// TestChurnProbeEconomy pins the probe economy of churn: it costs at most
// one grid's worth of probes per distinct surface (the memo ceiling), and a
// departure plus re-arrival is nearly free.
func TestChurnProbeEconomy(t *testing.T) {
	a, fp := newAlloc(t)
	if _, err := a.Arrive("alice", "cachey", econ.Utility1()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Arrive("bob", "slicey", econ.Utility3()); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.CacheMisses != fp.calls.Load() {
		t.Fatalf("stats count %d probes, prober saw %d", st.CacheMisses, fp.calls.Load())
	}
	if st.CacheMisses > int64(st.GridProbes) {
		t.Fatalf("churn issued %d probes, above the %d memo ceiling", st.CacheMisses, st.GridProbes)
	}

	// bob leaves and returns: his surface memo survived, so the whole
	// depart+arrive round trip must cost (almost) no new simulator work.
	before := fp.calls.Load()
	if _, err := a.Depart("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Arrive("bob", "slicey", econ.Utility3()); err != nil {
		t.Fatal(err)
	}
	delta := fp.calls.Load() - before
	if delta*10 > int64(a.LatticeSize()) {
		t.Fatalf("warm re-arrival cost %d probes, not 10x under the %d-point grid", delta, a.LatticeSize())
	}
	t.Logf("probes: total=%d gridEquivalent=%d rearrival=%d", fp.calls.Load(), a.Stats().GridProbes, delta)
}

// TestPriceBidWarm pins the bid-stream claim: the first bid on a surface is
// the only expensive one; warm bids across every market and utility are
// exact and >= 10x cheaper in simulator probes than the grid.
func TestPriceBidWarm(t *testing.T) {
	a, fp := newAlloc(t)
	cold, err := a.PriceBid("mixed", econ.Utility2(), econ.Market2())
	if err != nil {
		t.Fatal(err)
	}
	g := grid(benchPerf["mixed"])
	wantCfg, wantU := econ.Utility2().Best(econ.Market2(), g)
	if cold.Config != wantCfg || cold.Utility != wantU {
		t.Fatalf("cold bid %v (%.6f) != sweep %v (%.6f)", cold.Config, cold.Utility, wantCfg, wantU)
	}
	coldCalls := fp.calls.Load()

	before := fp.calls.Load()
	n := 0
	for _, m := range econ.Markets() {
		for _, u := range econ.Utilities() {
			warm, err := a.PriceBid("mixed", u, m)
			if err != nil {
				t.Fatal(err)
			}
			wc, wu := u.Best(m, g)
			if warm.Config != wc || warm.Utility != wu {
				t.Fatalf("%s/U%d warm bid %v (%.6f) != sweep %v (%.6f)", m.Name, u.K, warm.Config, warm.Utility, wc, wu)
			}
			n++
		}
	}
	perBid := float64(fp.calls.Load()-before) / float64(n)
	if perBid*10 > float64(a.LatticeSize()) {
		t.Fatalf("warm bids averaged %.1f probes, not 10x under the %d-point grid", perBid, a.LatticeSize())
	}
	t.Logf("cold=%d probes; warm avg=%.1f probes vs %d-point grid", coldCalls, perBid, a.LatticeSize())
}
