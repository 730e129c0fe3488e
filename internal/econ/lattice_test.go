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

func latticeGrid(perf func(Config) float64) *Surface {
	return surfaceOf(optSlices, optCaches, perf)
}

// TestSearchMatchesGridEverywhere: the incremental search must return the
// exact sweep optimum (config AND score) for every synthetic surface,
// market, and utility — from a cold start and from every possible warm
// start on the lattice.
func TestSearchMatchesGridEverywhere(t *testing.T) {
	lat, err := NewLattice(optSlices, optCaches)
	if err != nil {
		t.Fatal(err)
	}
	for name, perf := range surfaces {
		g := latticeGrid(perf)
		//ssim:nolint maprange: closure returns to its caller; every surface is checked regardless of order
		probe := func(cfg Config) (float64, error) { return perf(cfg), nil }
		for _, m := range Markets() {
			for _, u := range Utilities() {
				wantCfg, wantU := u.Best(m, g)
				//ssim:nolint maprange: closure returns to its caller; every surface is checked regardless of order
				obj := func(p float64, cfg Config) float64 { return u.Value(m, p, cfg) }

				res, err := lat.Search(obj, m, Config{}, probe)
				if err != nil {
					t.Fatal(err)
				}
				if res.Best != wantCfg || res.Score != wantU {
					t.Errorf("%s/%s/%v cold: search %v (%.6f) != grid %v (%.6f)",
						name, m.Name, u, res.Best, res.Score, wantCfg, wantU)
				}
				if res.Probes > lat.Size() {
					t.Errorf("%s/%s/%v: %d probes exceeds lattice %d", name, m.Name, u, res.Probes, lat.Size())
				}

				// Every warm start must converge to the same optimum.
				for _, s := range optSlices {
					for _, kb := range []int{0, 512, 8192} {
						r2, err := lat.Search(obj, m, Config{Slices: s, CacheKB: kb}, probe)
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

func TestSearchProbeErrorPropagates(t *testing.T) {
	lat, _ := NewLattice(optSlices, optCaches)
	boom := fmt.Errorf("simulator exploded")
	_, err := lat.Search(
		func(p float64, cfg Config) float64 { return p },
		Market2(), Config{},
		func(cfg Config) (float64, error) { return 0, boom },
	)
	if err == nil {
		t.Fatal("probe error swallowed")
	}
}

// TestNewLatticeRejectsBadAxes: an axis must be non-empty and strictly
// ascending, and every point of the lattice a valid configuration.
func TestNewLatticeRejectsBadAxes(t *testing.T) {
	for _, c := range []struct {
		name           string
		slices, caches []int
	}{
		{"empty slice axis", nil, []int{0}},
		{"empty cache axis", []int{1}, nil},
		{"repeated slice", []int{1, 1}, []int{0}},
		{"descending slices", []int{2, 1}, []int{0}},
		{"descending caches", []int{1}, []int{64, 0}},
		{"zero Slices", []int{0, 1}, []int{0}},
		{"nine Slices", []int{8, 9}, []int{0}},
		{"cache not in banks", []int{1}, []int{0, 100}},
		{"cache over 8 MB", []int{1}, []int{8192, 8256}},
		{"negative cache", []int{1}, []int{-64, 0}},
	} {
		if _, err := NewLattice(c.slices, c.caches); err == nil {
			t.Errorf("%s: %v x %v accepted", c.name, c.slices, c.caches)
		}
	}
	if _, err := NewLattice([]int{1, 2, 3, 4, 5, 6, 7, 8}, func() []int {
		var all []int
		for kb := 0; kb <= 8192; kb += 64 {
			all = append(all, kb)
		}
		return all
	}()); err != nil {
		t.Fatalf("the full 8 x 129 lattice refused: %v", err)
	}
}

// TestLatticeIndex: every point has the dense index i*len(caches)+j, and
// nothing off the lattice has one.
func TestLatticeIndex(t *testing.T) {
	lat, err := NewLattice(optSlices, optCaches)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Size() != len(optSlices)*len(optCaches) {
		t.Fatalf("size %d, want %d", lat.Size(), len(optSlices)*len(optCaches))
	}
	for i, s := range optSlices {
		for j, kb := range optCaches {
			x, ok := lat.Index(Config{Slices: s, CacheKB: kb})
			if !ok || x != i*len(optCaches)+j {
				t.Errorf("(%d, %d KB): index (%d, %v), want %d", s, kb, x, ok, i*len(optCaches)+j)
			}
		}
	}
	for _, cfg := range []Config{{}, {Slices: 3, CacheKB: 192}, {Slices: 9}, {Slices: 1, CacheKB: -64}, {Slices: 1, CacheKB: 8256}, {Slices: 2, CacheKB: 100}} {
		if x, ok := lat.Index(cfg); ok {
			t.Errorf("off-lattice %v has index %d", cfg, x)
		}
	}
	other, _ := NewLattice(optSlices, optCaches[:4])
	same, _ := NewLattice(optSlices, optCaches)
	if !lat.Equal(same) || lat.Equal(other) {
		t.Fatal("Equal does not compare axes")
	}
}

// TestSurfaceIndexOrder: a surface's values follow the lattice's dense index,
// which is the (Slices, CacheKB) order, and At reads nothing off the lattice
// — not even a configuration Equation 3 rejects.
func TestSurfaceIndexOrder(t *testing.T) {
	g := latticeGrid(func(c Config) float64 { return float64(100*c.Slices + c.CacheKB/64) })
	if len(g.Values) != g.Lattice.Size() {
		t.Fatalf("%d values on a %d-point lattice", len(g.Values), g.Lattice.Size())
	}
	for x, v := range g.Values {
		c := g.Lattice.Point(x)
		if i, ok := g.Lattice.Index(c); !ok || i != x {
			t.Fatalf("Point(%d) = %v, whose index is (%d, %v)", x, c, i, ok)
		}
		if p, ok := g.At(c); !ok || p != v {
			t.Fatalf("At(%v) = (%v, %v), want (%v, true)", c, p, ok, v)
		}
		if x > 0 {
			if prev := g.Lattice.Point(x - 1); prev.Slices > c.Slices || (prev.Slices == c.Slices && prev.CacheKB >= c.CacheKB) {
				t.Fatalf("index order not (Slices, CacheKB) at %d: %v then %v", x, prev, c)
			}
		}
	}
	for _, c := range []Config{{Slices: 9, CacheKB: 64}, {Slices: 3, CacheKB: 192}, {Slices: 1, CacheKB: 100}, {}} {
		if p, ok := g.At(c); ok {
			t.Errorf("off-lattice %v reads %v", c, p)
		}
	}
}

// TestSearchProbesCountDistinctVisits: the search keeps no memo, and
// SearchResult.Probes is the number of distinct configurations it asked
// the probe for.
func TestSearchProbesCountDistinctVisits(t *testing.T) {
	lat, _ := NewLattice(optSlices, optCaches)
	perf := surfaces["interior"]
	for _, m := range Markets() {
		for _, u := range Utilities() {
			seen := make(map[Config]bool)
			calls := 0
			probe := func(cfg Config) (float64, error) {
				seen[cfg] = true
				calls++
				return perf(cfg), nil
			}
			obj := func(p float64, cfg Config) float64 { return u.Value(m, p, cfg) }
			res, err := lat.Search(obj, m, Config{}, probe)
			if err != nil {
				t.Fatal(err)
			}
			if res.Probes != len(seen) || calls < res.Probes {
				t.Errorf("%s/%v: Probes %d, distinct visits %d, calls %d", m.Name, u, res.Probes, len(seen), calls)
			}
			again, _ := lat.Search(obj, m, Config{}, probe)
			if again != res {
				t.Errorf("%s/%v: repeat search %+v != %+v", m.Name, u, again, res)
			}
		}
	}
}
