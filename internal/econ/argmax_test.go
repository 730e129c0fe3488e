package econ

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// plateauSurfaces are step functions with exact ties: performance depends
// only on a configuration's area (its Market2 cost), or only on its Slice
// count, or not at all, so configurations of equal cost score bit-identical
// utilities and metrics and the optimum rests on PreferOnTie alone. On the
// last surface configurations of different cost tie too: under
// Market2/Utility1 every one of area at least 4 whose B/area·area rounds
// back to B is worth exactly B, so the cheapest of them, (2 Slices, 256 KB),
// must beat (1 Slice, 512 KB), which comes first in lattice index order.
func plateauSurfaces() []func(Config) float64 {
	area := func(c Config) float64 { return Market2().Cost(c) }
	return []func(Config) float64{
		func(Config) float64 { return 1 },
		func(c Config) float64 { return math.Floor(area(c) / 2) },
		func(c Config) float64 { return 1 + math.Floor(area(c)/3) },
		func(c Config) float64 { return math.Min(area(c), 4) },
		func(c Config) float64 { return float64(min(c.Slices, 3)) },
		func(c Config) float64 { return area(c) },
		func(c Config) float64 {
			if a := area(c); a >= 4 && DefaultBudget/a*a == DefaultBudget {
				return a
			}
			return area(c) / 2
		},
	}
}

// propertyGrids returns the generated and plateau surfaces on the test
// lattice.
func propertyGrids() []*Surface {
	var out []*Surface
	for _, perf := range append(generatedSurfaces(32), plateauSurfaces()...) {
		out = append(out, latticeGrid(perf))
	}
	return out
}

// bruteBest is the reference optimum: sort the surface's configurations by
// score, best first, then by PreferOnTie, and take the first. tied reports
// whether the runner-up scores exactly the same.
func bruteBest(m Market, g *Surface, score func(Config, float64) float64) (best Config, tied bool) {
	at := func(c Config) float64 {
		p, _ := g.At(c)
		return p
	}
	var cs []Config
	for x := range g.Values {
		cs = append(cs, g.Lattice.Point(x))
	}
	sort.SliceStable(cs, func(i, j int) bool {
		vi, vj := score(cs[i], at(cs[i])), score(cs[j], at(cs[j]))
		if vi != vj {
			return vi > vj
		}
		return PreferOnTie(m, cs[i], cs[j])
	})
	return cs[0], score(cs[0], at(cs[0])) == score(cs[1], at(cs[1]))
}

// TestArgmaxMatchesBruteForce: Utility.Best, BestByMetric and BestFixed all
// reduce through argmax, and each must equal the sort-based reference on
// every generated and plateau surface. The plateau surfaces must put exact
// ties at the optimum, or the tie rule would go untested.
func TestArgmaxMatchesBruteForce(t *testing.T) {
	grids := propertyGrids()
	checks, ties := 0, 0
	check := func(what string, got Config, m Market, g *Surface, score func(Config, float64) float64) {
		t.Helper()
		want, tied := bruteBest(m, g, score)
		if got != want {
			t.Fatalf("%s: got %v, reference %v", what, got, want)
		}
		checks++
		if tied {
			ties++
		}
	}
	for gi, g := range grids {
		for _, m := range Markets() {
			for _, u := range Utilities() {
				value := func(c Config, p float64) float64 { return u.Value(m, p, c) }
				got, gotU := u.Best(m, g)
				check(fmt.Sprintf("grid %d %s/U%d Best", gi, m.Name, u.K), got, m, g, value)
				if p, _ := g.At(got); gotU != value(got, p) {
					t.Fatalf("grid %d %s/U%d: Best reports %v, its configuration scores %v", gi, m.Name, u.K, gotU, value(got, p))
				}
			}
		}
		for k := 1; k <= 3; k++ {
			got, _ := BestByMetric(k, g)
			check(fmt.Sprintf("grid %d k=%d BestByMetric", gi, k), got, Market2(), g,
				func(c Config, p float64) float64 { return Metric(k, p, c) })
		}
	}
	// BestFixed over each grid alone and over suites of three consecutive
	// grids, for the whole utility family and for each utility alone.
	var suites []Suite
	for i, g := range grids {
		suites = append(suites, Suite{"a": g})
		if i+3 <= len(grids) && i%3 == 0 {
			suites = append(suites, Suite{"a": g, "b": grids[i+1], "c": grids[i+2]})
		}
	}
	for si, s := range suites {
		for _, m := range Markets() {
			for _, utils := range [][]Utility{Utilities(), {Utility1()}, {Utility2()}, {Utility3()}} {
				gme := func(c Config, _ float64) float64 {
					var vals []float64
					for _, name := range s.Names() {
						p, _ := s[name].At(c)
						for _, u := range utils {
							vals = append(vals, u.Value(m, p, c))
						}
					}
					return GME(vals)
				}
				got, err := BestFixed(s, utils, m)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("suite %d %s %v BestFixed", si, m.Name, utils), got, m, s["a"], gme)
			}
		}
	}
	t.Logf("%d optima over %d grids, %d of them exact ties", checks, len(grids), ties)
	if ties == 0 {
		t.Fatal("no optimum was an exact tie")
	}
}

// TestBestBudgetInvariant: under U = (B/cost)·P^K the budget scales every
// configuration's utility by the same factor, so scaling it must not move
// Utility.Best's configuration. A power-of-two factor scales B/cost exactly,
// so the property holds bit for bit, exact ties included. An arbitrary
// factor does not: where utilities tie only in exact arithmetic, rounding
// B/cost decides the winner. With P equal to area (a plateau surface) under
// Market2/Utility1, every configuration is worth B in exact arithmetic, and
// budgets 3, 100 and 1000 pick (1, 0 KB), (5, 64 KB) and (7, 64 KB).
func TestBestBudgetInvariant(t *testing.T) {
	for gi, g := range propertyGrids() {
		for _, m := range Markets() {
			for _, u := range Utilities() {
				want, _ := u.Best(m, g)
				for e := -20; e <= 20; e++ {
					v := Utility{K: u.K, Budget: math.Ldexp(u.Budget, e)}
					if got, _ := v.Best(m, g); got != want {
						t.Fatalf("grid %d %s/U%d: budget %v picks %v, budget %v picks %v", gi, m.Name, u.K, v.Budget, got, u.Budget, want)
					}
				}
			}
		}
	}
}
