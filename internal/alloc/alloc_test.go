package alloc

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"sharing/internal/econ"
	"sharing/internal/market"
)

var (
	tSlices = []int{1, 2, 3, 4, 5, 6, 7, 8}
	tCaches = []int{0, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
)

// Synthetic per-benchmark performance surfaces, shaped like the paper's
// regimes (Fig. 12) and mirroring the internal/market test fixtures:
// mcf-like cache lovers, sjeng-like compute lovers.
var benchPerf = map[string]func(econ.Config) float64{
	"cachey": func(c econ.Config) float64 {
		return 0.3 + 1.8*float64(c.CacheKB)/(float64(c.CacheKB)+700)
	},
	"slicey": func(c econ.Config) float64 {
		s := float64(c.Slices)
		return 0.25 * s * (1 + 0.05*float64(c.CacheKB)/8192)
	},
	"mixed": func(c econ.Config) float64 {
		s := float64(c.Slices)
		kb := float64(c.CacheKB)
		return (s / (s + 1)) * (0.4 + kb/(kb+400))
	},
}

// phasePerf gives "mixed" a phased life: phase 0 cache-hungry, phase 1
// compute-hungry.
var phasePerf = map[int]func(econ.Config) float64{
	0: func(c econ.Config) float64 {
		return 0.2 + 2.0*float64(c.CacheKB)/(float64(c.CacheKB)+900)
	},
	1: func(c econ.Config) float64 {
		return 0.22 * float64(c.Slices)
	},
}

// raceProber serves the synthetic surfaces and counts simulator calls
// atomically — the Allocator invokes it from many goroutines.
type raceProber struct {
	calls atomic.Int64
}

func (f *raceProber) Probe(bench string, cfg econ.Config) (float64, error) {
	fn, ok := benchPerf[bench]
	if !ok {
		return 0, fmt.Errorf("no bench %q", bench)
	}
	f.calls.Add(1)
	return fn(cfg), nil
}

func (f *raceProber) ProbePhase(bench string, phase int, cfg econ.Config) (float64, error) {
	if phase == WholeProgram {
		return f.Probe(bench, cfg)
	}
	fn, ok := phasePerf[phase]
	if !ok || bench != "mixed" {
		return 0, fmt.Errorf("no phase %d of %q", phase, bench)
	}
	f.calls.Add(1)
	return fn(cfg), nil
}

// flatProber serves benchPerf only: a prober that cannot measure phases.
type flatProber struct{}

func (flatProber) Probe(bench string, cfg econ.Config) (float64, error) {
	fn, ok := benchPerf[bench]
	if !ok {
		return 0, fmt.Errorf("no bench %q", bench)
	}
	return fn(cfg), nil
}

// grid sweeps a synthetic surface over the whole test lattice — the
// exhaustive argmax reference PriceBid must match.
func grid(perf func(econ.Config) float64) *econ.Surface {
	lat, err := econ.NewLattice(tSlices, tCaches)
	if err != nil {
		panic(err)
	}
	g := econ.NewSurface(lat)
	for x := range g.Values {
		g.Values[x] = perf(lat.Point(x))
	}
	return g
}

var testSupply = econ.Supply{Slices: 64, Banks: 64}

func testParams() Params {
	return Params{Slices: tSlices, CacheKB: tCaches, Supply: testSupply}
}

func newAlloc(t *testing.T) (*Allocator, *raceProber) {
	t.Helper()
	fp := &raceProber{}
	a, err := New(testParams(), fp)
	if err != nil {
		t.Fatal(err)
	}
	return a, fp
}

// TestPriceBidExact checks the serving hot path against the ground truth:
// for every synthetic benchmark, market, and utility family, PriceBid must
// return the full-grid argmax with PreferOnTie ties — cold, warm, and
// hint-seeded bids alike.
func TestPriceBidExact(t *testing.T) {
	a, _ := newAlloc(t)
	for bench, perf := range benchPerf {
		g := grid(perf)
		for _, m := range econ.Markets() {
			for _, u := range econ.Utilities() {
				wantCfg, wantU := u.Best(m, g)
				for round := 0; round < 2; round++ { // round 1 re-prices against the warm cache
					br, err := a.PriceBid(bench, u, m)
					if err != nil {
						t.Fatal(err)
					}
					if br.Config != wantCfg || br.Utility != wantU {
						t.Fatalf("%s/%s/%s round %d: got %+v u=%g, want %+v u=%g",
							bench, m.Name, u, round, br.Config, br.Utility, wantCfg, wantU)
					}
				}
			}
		}
	}
	st := a.Stats()
	if st.Bids == 0 || st.Searches < st.Bids {
		t.Fatalf("stats did not count bids/searches: %+v", st)
	}
}

// TestPriceBidObjective checks the explicit-objective entry point: an
// objective that scores pure performance must pick the performance argmax,
// and one that scores 1/cost the cheapest configuration, not the utility
// optimum — from the fixed start and from an explicit one alike.
func TestPriceBidObjective(t *testing.T) {
	a, _ := newAlloc(t)
	m := econ.Market2()
	perf := func(perf float64, cfg econ.Config) float64 { return perf }
	frugal := func(perf float64, cfg econ.Config) float64 { return 1 / m.Cost(cfg) }
	for _, start := range []econ.Config{{}, {Slices: 7, CacheKB: 4096}, {Slices: 1, CacheKB: 64}} {
		br, err := a.PriceBidAt("slicey", econ.Utility1(), m, start, perf)
		if err != nil {
			t.Fatal(err)
		}
		if want := (econ.Config{Slices: 8, CacheKB: 8192}); br.Config != want { // slicey peaks at max everything
			t.Fatalf("performance objective from %v: got %+v, want %+v", start, br.Config, want)
		}
		br, err = a.PriceBidAt("slicey", econ.Utility1(), m, start, frugal)
		if err != nil {
			t.Fatal(err)
		}
		if want := (econ.Config{Slices: 1, CacheKB: 0}); br.Config != want {
			t.Fatalf("frugal objective from %v: got %+v, want %+v", start, br.Config, want)
		}
	}
}

// TestMembershipReceipts drives arrive/phase/depart through the epoch
// machinery and checks receipts, the published view, and the sequential
// replay witness at each step.
func TestMembershipReceipts(t *testing.T) {
	a, fp := newAlloc(t)

	r1, err := a.Arrive("vm1", "cachey", econ.Utility1())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seq != 1 || r1.Epoch != 1 || r1.Batched != 1 {
		t.Fatalf("first receipt: %+v", r1)
	}
	if r1.Allocation == nil || r1.Allocation.Customer != "vm1" {
		t.Fatalf("first receipt allocation: %+v", r1.Allocation)
	}
	r2, err := a.Arrive("vm2", "mixed", econ.Utility2())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Seq != 2 || r2.Result == nil || len(r2.Result.Allocations) != 2 {
		t.Fatalf("second receipt: %+v", r2)
	}
	if _, err := VerifySequential(a, fp); err != nil {
		t.Fatal(err)
	}

	// Phase change carries the hypervisor transition plan from the previous
	// configuration.
	rp, err := a.Reconfigure("vm2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Reconfig == nil {
		t.Fatalf("phase receipt missing reconfig plan: %+v", rp)
	}
	vm, ok := a.VM("vm2")
	if !ok || vm.Phase != 1 {
		t.Fatalf("published VM after phase change: %+v ok=%v", vm, ok)
	}
	if _, err := VerifySequential(a, fp); err != nil {
		t.Fatal(err)
	}

	// Departures re-clear the survivors; the last one empties the market.
	if _, err := a.Depart("vm1"); err != nil {
		t.Fatal(err)
	}
	rd, err := a.Depart("vm2")
	if err != nil {
		t.Fatal(err)
	}
	if rd.Result != nil {
		t.Fatalf("empty market must publish nil result, got %+v", rd.Result)
	}
	if got := a.Snapshot(); got.Result != nil || len(got.VMs) != 0 {
		t.Fatalf("empty-market snapshot: %+v", got)
	}
	if _, err := VerifySequential(a, fp); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Prices(), econ.Market2(); got != want {
		t.Fatalf("empty-market prices: got %+v want %+v", got, want)
	}

	wantLog := []string{"arrive", "arrive", "phase", "depart", "depart"}
	log := a.Log()
	if len(log) != len(wantLog) {
		t.Fatalf("log length %d, want %d: %+v", len(log), len(wantLog), log)
	}
	for i, rec := range log {
		if rec.Kind != wantLog[i] || rec.Seq != uint64(i+1) {
			t.Fatalf("log[%d] = %+v, want kind %s seq %d", i, rec, wantLog[i], i+1)
		}
	}
}

// TestMembershipErrors checks the validation failures: duplicate or empty
// arrivals, departures and phase changes of absent customers, and phase
// changes without a phase-capable prober.
func TestMembershipErrors(t *testing.T) {
	a, _ := newAlloc(t)
	if _, err := a.Arrive("", "cachey", econ.Utility1()); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, err := a.Arrive("vm1", "cachey", econ.Utility1()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Arrive("vm1", "slicey", econ.Utility1()); err == nil {
		t.Fatal("duplicate arrival must fail")
	}
	if _, err := a.Depart("ghost"); err == nil {
		t.Fatal("absent departure must fail")
	}
	if _, err := a.Reconfigure("ghost", 1); err == nil {
		t.Fatal("absent phase change must fail")
	}
	if _, err := a.PriceBid("nope", econ.Utility1(), econ.Market2()); err == nil {
		t.Fatal("unknown benchmark must fail")
	}

	// A failed op must leave the committed state untouched.
	if got := len(a.Log()); got != 1 {
		t.Fatalf("failed ops leaked into the log: %d records", got)
	}
	if st := a.Stats(); st.Arrivals != 1 || st.Departures != 0 || st.PhaseChanges != 0 {
		t.Fatalf("failed ops leaked into the stats: %+v", st)
	}

	// Phase changes demand a PhaseProber.
	flat, err := New(testParams(), flatProber{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Arrive("vm1", "mixed", econ.Utility1()); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Reconfigure("vm1", 1); err == nil {
		t.Fatal("phase change without PhaseProber must fail")
	}
}

// TestEpochRollback makes the epoch's reprice fail (a resident whose bench
// the prober refuses) and checks the epoch aborts cleanly: membership,
// journal, stats, and the published view all stay at the last good commit,
// and the allocator keeps serving afterwards.
func TestEpochRollback(t *testing.T) {
	a, fp := newAlloc(t)
	if _, err := a.Arrive("vm1", "cachey", econ.Utility1()); err != nil {
		t.Fatal(err)
	}
	before := a.Snapshot()

	if _, err := a.Arrive("vm2", "nosuchbench", econ.Utility1()); err == nil {
		t.Fatal("arrival with unprobeable bench must fail the epoch")
	}
	if got := a.Snapshot(); got != before {
		t.Fatalf("aborted epoch republished the view")
	}
	if got := len(a.Log()); got != 1 {
		t.Fatalf("aborted epoch journaled: %d records", got)
	}
	if _, ok := a.VM("vm2"); ok {
		t.Fatal("aborted arrival left a resident behind")
	}

	// The allocator still works, sequence numbers unharmed.
	r, err := a.Arrive("vm3", "slicey", econ.Utility2())
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 2 {
		t.Fatalf("seq after rollback: got %d want 2", r.Seq)
	}
	if _, err := VerifySequential(a, fp); err != nil {
		t.Fatal(err)
	}
}

// TestSharedSurfaceCache wires two allocators onto one SurfaceCache and
// checks they agree and share the probe economy: the second prices the same
// bid without a single new prober call.
func TestSharedSurfaceCache(t *testing.T) {
	fp := &raceProber{}
	lat, err := econ.NewLattice(tSlices, tCaches)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := market.NewSurfaceCache(lat, fp)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Surfaces = cache
	a, err := New(p, nil) // prober nil: all probes through the shared cache
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := econ.Market3()
	ba, err := a.PriceBid("cachey", econ.Utility3(), m)
	if err != nil {
		t.Fatal(err)
	}
	calls := fp.calls.Load()
	bb, err := b.PriceBid("cachey", econ.Utility3(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ba, bb) {
		t.Fatalf("shared-cache bid mismatch:\n a %+v\n b %+v", ba, bb)
	}
	if fp.calls.Load() != calls {
		t.Fatalf("second allocator re-probed %d points the first already cached", fp.calls.Load()-calls)
	}
}

// TestNewValidation checks constructor failure modes, and that a zero
// supply builds a pricing-only allocator: bids price, membership ops are
// refused.
func TestNewValidation(t *testing.T) {
	if _, err := New(Params{CacheKB: tCaches, Supply: testSupply}, &raceProber{}); err == nil {
		t.Fatal("empty slice axis must fail")
	}
	if _, err := New(Params{Slices: []int{2, 1}, CacheKB: tCaches, Supply: testSupply}, &raceProber{}); err == nil {
		t.Fatal("descending slice axis must fail")
	}
	if _, err := New(Params{Slices: tSlices, CacheKB: tCaches, Supply: econ.Supply{Slices: -1}}, &raceProber{}); err == nil {
		t.Fatal("negative supply must fail")
	}
	if _, err := New(testParams(), nil); err == nil {
		t.Fatal("nil prober without shared cache must fail")
	}
	small, err := econ.NewLattice(tSlices, tCaches[:4])
	if err != nil {
		t.Fatal(err)
	}
	other, err := market.NewSurfaceCache(small, &raceProber{})
	if err != nil {
		t.Fatal(err)
	}
	mismatched := testParams()
	mismatched.Surfaces = other
	if _, err := New(mismatched, nil); err == nil {
		t.Fatal("shared cache over a different lattice must fail")
	}

	a, err := New(Params{Slices: tSlices, CacheKB: tCaches}, &raceProber{})
	if err != nil {
		t.Fatalf("zero supply (pricing only) must be accepted: %v", err)
	}
	if _, err := a.PriceBid("cachey", econ.Utility1(), econ.Market2()); err != nil {
		t.Fatalf("pricing-only allocator refused a bid: %v", err)
	}
	if _, err := a.Arrive("vm1", "cachey", econ.Utility1()); err == nil {
		t.Fatal("arrival without supply must fail")
	}
	if _, err := a.Depart("vm1"); err == nil {
		t.Fatal("departure without supply must fail")
	}
	if _, err := a.Reconfigure("vm1", 1); err == nil {
		t.Fatal("phase change without supply must fail")
	}
	if got := len(a.Log()); got != 0 {
		t.Fatalf("refused ops reached the journal: %d records", got)
	}
}

// TestInvalidEconomics is the boundary table: every entry point that takes
// a utility or prices refuses economics with no meaning — K below 1, a
// budget that is not a finite positive number, a negative or non-finite
// price — with ErrInvalid, and the refusal leaves no trace in the market.
func TestInvalidEconomics(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	u, m := econ.Utility2(), econ.Market2()
	cases := []struct {
		name string
		u    econ.Utility
		m    econ.Market
		// market reports a bad price: only the bid entry points take one.
		market bool
	}{
		{name: "k zero", u: econ.Utility{K: 0, Budget: u.Budget}, m: m},
		{name: "k negative", u: econ.Utility{K: -2, Budget: u.Budget}, m: m},
		{name: "budget zero", u: econ.Utility{K: 2, Budget: 0}, m: m},
		{name: "budget negative", u: econ.Utility{K: 2, Budget: -5}, m: m},
		{name: "budget NaN", u: econ.Utility{K: 2, Budget: nan}, m: m},
		{name: "budget +Inf", u: econ.Utility{K: 2, Budget: inf}, m: m},
		{name: "budget -Inf", u: econ.Utility{K: 2, Budget: -inf}, m: m},
		{name: "slice cost negative", u: u, m: econ.Market{Name: "custom", SliceCost: -1, BankCost: 1}, market: true},
		{name: "bank cost negative", u: u, m: econ.Market{Name: "custom", SliceCost: 1, BankCost: -0.5}, market: true},
		{name: "slice cost NaN", u: u, m: econ.Market{Name: "custom", SliceCost: nan, BankCost: 1}, market: true},
		{name: "bank cost +Inf", u: u, m: econ.Market{Name: "custom", SliceCost: 1, BankCost: inf}, market: true},
	}
	a, fp := newAlloc(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := a.PriceBid("cachey", c.u, c.m); !errors.Is(err, ErrInvalid) {
				t.Errorf("PriceBid: got %v, want ErrInvalid", err)
			}
			if _, err := a.PriceBidAt("cachey", c.u, c.m, econ.Config{Slices: 2, CacheKB: 256}, nil); !errors.Is(err, ErrInvalid) {
				t.Errorf("PriceBidAt: got %v, want ErrInvalid", err)
			}
			if c.market {
				return
			}
			if _, err := a.Arrive("vm-"+c.name, "cachey", c.u); !errors.Is(err, ErrInvalid) {
				t.Errorf("Arrive: got %v, want ErrInvalid", err)
			}
		})
	}
	if calls := fp.calls.Load(); calls != 0 {
		t.Fatalf("refused requests cost %d probes", calls)
	}
	if st := a.Stats(); st.Bids != 0 || st.Searches != 0 || st.Ops != 0 || len(a.Log()) != 0 {
		t.Fatalf("refused requests left a trace: %+v", st)
	}
	// A zero price is free, not invalid: the bid still prices.
	if _, err := a.PriceBid("cachey", u, econ.Market{Name: "free banks", SliceCost: 1}); err != nil {
		t.Fatalf("zero bank cost refused: %v", err)
	}
}

// TestPriceBidAllocsZero pins the warm-bid allocation bound: once the
// surface is cached, a bid costs no heap allocation — in PriceBid's
// fixed-start shape and in the fleet's shape, PriceBidAt with an explicit
// start and objective. The search holds no pooled state, so the bound holds
// under the race detector too.
func TestPriceBidAllocsZero(t *testing.T) {
	a, _ := newAlloc(t)
	u, m := econ.Utility2(), econ.Market2()
	start := econ.Config{Slices: 3, CacheKB: 512}
	obj := func(perf float64, cfg econ.Config) float64 { return u.Value(m, perf, cfg) / float64(cfg.Slices) }
	var err error
	for _, c := range []struct {
		name string
		bid  func()
	}{
		{"PriceBid", func() { _, err = a.PriceBid("mixed", u, m) }},
		{"PriceBidAt", func() { _, err = a.PriceBidAt("mixed", u, m, start, obj) }},
	} {
		c.bid() // warm the surface
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, c.bid); n != 0 {
			t.Errorf("warm %s: %v allocs per bid, want 0", c.name, n)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
