package econ

import (
	"fmt"
	"math"
	"testing"
)

// optAxes is the test lattice (a subset of the standard one, so tests stay
// cheap while exercising both axes).
var (
	optSlices = []int{1, 2, 3, 4, 5, 6, 7, 8}
	optCaches = []int{0, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
)

// surfaces is a family of deterministic performance shapes covering the
// regimes of Figs. 12-14: cache-bound, compute-bound, balanced interior
// peaks, and a flat plateau.
var surfaces = map[string]func(Config) float64{
	"cacheLover": func(c Config) float64 {
		return 0.4 + 2.2*float64(c.CacheKB)/(float64(c.CacheKB)+300)
	},
	"sliceLover": func(c Config) float64 {
		return 0.2 * float64(c.Slices)
	},
	"balanced": func(c Config) float64 {
		s := float64(c.Slices)
		kb := float64(c.CacheKB)
		return (s / (s + 2)) * (0.5 + kb/(kb+512))
	},
	"interior": func(c Config) float64 {
		// Peaks at moderate resources; over-provisioning wastes budget.
		s := float64(c.Slices)
		kb := float64(c.CacheKB)
		return math.Sqrt(s) * (1 - math.Exp(-(kb+64)/400))
	},
	"flat": func(c Config) float64 { return 1.0 },
}

func latticeGrid(perf func(Config) float64) Grid {
	g := make(Grid)
	for _, s := range optSlices {
		for _, kb := range optCaches {
			cfg := Config{Slices: s, CacheKB: kb}
			g[cfg] = perf(cfg)
		}
	}
	return g
}

// TestSearchMatchesGridEverywhere: the incremental search must return the
// exact sweep optimum (config AND score) for every synthetic surface,
// market, and utility — from a cold start and from every possible warm
// start on the lattice.
func TestSearchMatchesGridEverywhere(t *testing.T) {
	for name, perf := range surfaces {
		g := latticeGrid(perf)
		//ssim:nolint maprange: closure returns to its caller; every surface is checked regardless of order
		probe := func(cfg Config) (float64, error) { return perf(cfg), nil }
		for _, m := range Markets() {
			for _, u := range Utilities() {
				wantCfg, wantU := u.Best(m, g)
				//ssim:nolint maprange: closure returns to its caller; every surface is checked regardless of order
				obj := func(p float64, cfg Config) float64 { return u.Value(m, p, cfg) }

				opt, err := NewOptimizer(optSlices, optCaches)
				if err != nil {
					t.Fatal(err)
				}
				res, err := opt.Search(obj, m, Config{}, probe)
				if err != nil {
					t.Fatal(err)
				}
				if res.Best != wantCfg || res.Score != wantU {
					t.Errorf("%s/%s/%v cold: search %v (%.6f) != grid %v (%.6f)",
						name, m.Name, u, res.Best, res.Score, wantCfg, wantU)
				}
				if res.Probes > opt.LatticeSize() {
					t.Errorf("%s/%s/%v: %d probes exceeds lattice %d", name, m.Name, u, res.Probes, opt.LatticeSize())
				}

				// Every warm start must converge to the same optimum.
				for _, s := range optSlices {
					for _, kb := range []int{0, 512, 8192} {
						o2, _ := NewOptimizer(optSlices, optCaches)
						r2, err := o2.Search(obj, m, Config{Slices: s, CacheKB: kb}, probe)
						if err != nil {
							t.Fatal(err)
						}
						if r2.Best != wantCfg {
							t.Errorf("%s/%s/%v warm from (%d,%d): %v != %v",
								name, m.Name, u, s, kb, r2.Best, wantCfg)
						}
					}
				}
			}
		}
	}
}

// TestSearchWarmStartProbeEconomy pins the probe-count claims of the online
// engine's usage pattern: one Optimizer persists per performance surface, so
// a repeat search is free and a re-pricing (new objective, warm start at the
// previous optimum) costs at most a few probes where the new path leaves the
// memoized region.
func TestSearchWarmStartProbeEconomy(t *testing.T) {
	perf := surfaces["balanced"]
	probe := func(cfg Config) (float64, error) { return perf(cfg), nil }
	m, u := Market2(), Utility2()
	obj := func(p float64, cfg Config) float64 { return u.Value(m, p, cfg) }

	opt, _ := NewOptimizer(optSlices, optCaches)
	cold, err := opt.Search(obj, m, Config{}, probe)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Probes >= opt.LatticeSize() {
		t.Fatalf("cold search used %d probes, no better than the %d-point sweep", cold.Probes, opt.LatticeSize())
	}

	// Same optimizer, same prices: everything is memoized.
	again, err := opt.Search(obj, m, cold.Best, probe)
	if err != nil {
		t.Fatal(err)
	}
	if again.Probes != 0 {
		t.Fatalf("repeat search issued %d probes, want 0 (memo)", again.Probes)
	}
	if again.Best != cold.Best {
		t.Fatalf("repeat search moved: %v != %v", again.Best, cold.Best)
	}

	// A re-auction round nudges prices; the warm search re-walks mostly
	// memoized ground.
	bumped := m
	bumped.SliceCost *= 1.1
	obj2 := func(p float64, cfg Config) float64 { return u.Value(bumped, p, cfg) }
	warm, err := opt.Search(obj2, bumped, cold.Best, probe)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Probes > 8 {
		t.Fatalf("re-priced warm search issued %d probes, want <= 8", warm.Probes)
	}
	g := latticeGrid(perf)
	wantCfg, _ := u.Best(bumped, g)
	if warm.Best != wantCfg {
		t.Fatalf("re-priced warm search found %v, sweep says %v", warm.Best, wantCfg)
	}
}

func TestSearchProbeErrorPropagates(t *testing.T) {
	opt, _ := NewOptimizer(optSlices, optCaches)
	boom := fmt.Errorf("simulator exploded")
	_, err := opt.Search(
		func(p float64, cfg Config) float64 { return p },
		Market2(), Config{},
		func(cfg Config) (float64, error) { return 0, boom },
	)
	if err == nil {
		t.Fatal("probe error swallowed")
	}
}

func TestNewOptimizerRejectsBadAxes(t *testing.T) {
	if _, err := NewOptimizer(nil, []int{0}); err == nil {
		t.Fatal("empty slice axis accepted")
	}
	if _, err := NewOptimizer([]int{1, 1}, []int{0}); err == nil {
		t.Fatal("non-ascending axis accepted")
	}
	if _, err := NewOptimizer([]int{2, 1}, []int{0}); err == nil {
		t.Fatal("descending axis accepted")
	}
}

// TestOptimizerMemoSharedAcrossObjectives: one surface serves bids under
// every market and utility; only the first search pays probes for a region.
func TestOptimizerMemoSharedAcrossObjectives(t *testing.T) {
	perf := surfaces["interior"]
	probe := func(cfg Config) (float64, error) { return perf(cfg), nil }
	opt, _ := NewOptimizer(optSlices, optCaches)
	total := 0
	for _, m := range Markets() {
		for _, u := range Utilities() {
			obj := func(p float64, cfg Config) float64 { return u.Value(m, p, cfg) }
			res, err := opt.Search(obj, m, Config{}, probe)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Probes
		}
	}
	if opt.Probes() != total {
		t.Fatalf("probe accounting: optimizer %d != sum %d", opt.Probes(), total)
	}
	if total > opt.LatticeSize() {
		t.Fatalf("nine bids on one surface probed %d > lattice %d: memo not shared", total, opt.LatticeSize())
	}
}
