package alloc_test

import (
	"fmt"
	"testing"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/market"
)

// These tests drive the Allocator (the market engine) through a shared
// market.SurfaceCache, the way the fleet and sharingd do.

var (
	eSlices = []int{1, 2, 3, 4, 5, 6, 7, 8}
	eCaches = []int{0, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	eSupply = econ.Supply{Slices: 64, Banks: 64}
)

// surfaces is a whole-program prober: "cachey" and "slicey" are the
// cache-loving and compute-loving regimes of the paper's Fig. 12.
type surfaces struct{}

func (surfaces) Probe(bench string, cfg econ.Config) (float64, error) {
	switch bench {
	case "cachey":
		return 0.3 + 1.8*float64(cfg.CacheKB)/(float64(cfg.CacheKB)+700), nil
	case "slicey":
		return 0.25 * float64(cfg.Slices) * (1 + 0.05*float64(cfg.CacheKB)/8192), nil
	}
	return 0, fmt.Errorf("no bench %q", bench)
}

// phasedSurfaces adds per-phase measurements to surfaces.
type phasedSurfaces struct{ surfaces }

func (p phasedSurfaces) ProbePhase(bench string, phase int, cfg econ.Config) (float64, error) {
	return p.Probe(bench, cfg)
}

// newEngine builds an allocator whose probes all go through cache.
func newEngine(t *testing.T, cache *market.SurfaceCache) *alloc.Allocator {
	t.Helper()
	e, err := alloc.New(alloc.Params{Slices: eSlices, CacheKB: eCaches, Supply: eSupply, Surfaces: cache}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sharedCache(t *testing.T, p market.Prober) *market.SurfaceCache {
	t.Helper()
	lat, err := econ.NewLattice(eSlices, eCaches)
	if err != nil {
		t.Fatal(err)
	}
	c, err := market.NewSurfaceCache(lat, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEngineErrors(t *testing.T) {
	if _, err := alloc.New(alloc.Params{Slices: eSlices, CacheKB: eCaches}, nil); err == nil {
		t.Fatal("nil prober without a shared cache accepted")
	}
	if _, err := alloc.New(alloc.Params{}, surfaces{}); err == nil {
		t.Fatal("empty axes accepted")
	}
	if _, err := alloc.New(alloc.Params{Slices: []int{2, 1}, CacheKB: eCaches}, surfaces{}); err == nil {
		t.Fatal("descending axis accepted")
	}
	e := newEngine(t, sharedCache(t, phasedSurfaces{}))
	if _, err := e.Arrive("a", "cachey", econ.Utility1()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Arrive("a", "slicey", econ.Utility1()); err == nil {
		t.Fatal("duplicate customer accepted")
	}
	if _, err := e.Depart("ghost"); err == nil {
		t.Fatal("unknown departure accepted")
	}
	if _, err := e.Reconfigure("ghost", 0); err == nil {
		t.Fatal("phase change for unknown customer accepted")
	}
	if _, err := e.PriceBid("nope", econ.Utility1(), econ.Market2()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestSetPhaseRequiresPhaseProber: an engine over a shared cache whose
// prober has no phase surfaces must refuse a phase change, and the refusal
// must leave the customer where it was.
func TestSetPhaseRequiresPhaseProber(t *testing.T) {
	cache := sharedCache(t, surfaces{})
	if cache.Phased() {
		t.Fatal("cache over a non-phase prober claims phases")
	}
	e := newEngine(t, cache)
	if _, err := e.Arrive("a", "cachey", econ.Utility1()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reconfigure("a", 0); err == nil {
		t.Fatal("phase change without a PhaseProber accepted")
	}
	if vm, ok := e.VM("a"); !ok || vm.Phase != market.WholeProgram {
		t.Fatalf("refused phase change moved the customer: %+v ok=%v", vm, ok)
	}
}

// TestPriceBidAtObjectiveOverride: a custom objective (here 1/cost — the
// cheapest valid configuration) must steer the search, and the point it
// chose must land in the shared cache: probing it again is a hit.
func TestPriceBidAtObjectiveOverride(t *testing.T) {
	cache := sharedCache(t, surfaces{})
	e := newEngine(t, cache)
	m := econ.Market2()
	frugal := func(perf float64, cfg econ.Config) float64 { return 1 / m.Cost(cfg) }
	br, err := e.PriceBidAt("slicey", econ.Utility1(), m, econ.Config{}, frugal)
	if err != nil {
		t.Fatal(err)
	}
	want := econ.Config{Slices: 1, CacheKB: 0}
	if br.Config != want {
		t.Fatalf("frugal objective chose %v, want %v", br.Config, want)
	}
	misses := cache.Unique()
	if p, err := cache.Surface("slicey", market.WholeProgram).Probe(want); err != nil || p != br.Perf {
		t.Fatalf("shared cache probe at the chosen point = (%v, %v), want (%v, nil)", p, err, br.Perf)
	}
	if cache.Unique() != misses {
		t.Fatalf("probing the chosen point missed the shared cache: misses %d -> %d", misses, cache.Unique())
	}
}
