package econ

import (
	"math"
	"testing"
	"testing/quick"
)

// surfaceOf returns the surface over the lattice slices x caches whose value
// at each point is perf of it.
func surfaceOf(slices, caches []int, perf func(c Config) float64) *Surface {
	lat, err := NewLattice(slices, caches)
	if err != nil {
		panic(err)
	}
	s := NewSurface(lat)
	for x := range s.Values {
		s.Values[x] = perf(lat.Point(x))
	}
	return s
}

// sparseSurface returns the surface over slices x caches that holds vals at
// their configurations and filler at every other point.
func sparseSurface(slices, caches []int, filler float64, vals map[Config]float64) *Surface {
	return surfaceOf(slices, caches, func(c Config) float64 {
		if v, ok := vals[c]; ok {
			return v
		}
		return filler
	})
}

func toyGrid(perf func(c Config) float64) *Surface {
	return surfaceOf([]int{1, 2, 4, 8}, []int{0, 64, 128, 512, 1024}, perf)
}

func TestConfigBasics(t *testing.T) {
	c := Config{Slices: 3, CacheKB: 256}
	if c.Banks() != 4 {
		t.Fatalf("banks = %d", c.Banks())
	}
	if c.String() != "(256KB, 3)" {
		t.Fatalf("string = %s", c.String())
	}
	valid := []Config{{1, 0}, {8, 8192}, {4, 64}}
	for _, v := range valid {
		if !v.Valid() {
			t.Errorf("%v should be valid", v)
		}
	}
	invalid := []Config{{0, 0}, {9, 0}, {1, -64}, {1, 8256}, {1, 100}}
	for _, v := range invalid {
		if v.Valid() {
			t.Errorf("%v should be invalid (Equation 3)", v)
		}
	}
}

func TestMarketCosts(t *testing.T) {
	cfg := Config{Slices: 2, CacheKB: 256} // 2 slices + 4 banks
	if got := Market2().Cost(cfg); got != 2*1.0+4*0.5 {
		t.Fatalf("Market2 cost = %f", got)
	}
	if got := Market1().Cost(cfg); got != 2*4.0+4*0.5 {
		t.Fatalf("Market1 cost = %f", got)
	}
	if got := Market3().Cost(cfg); got != 2*1.0+4*2.0 {
		t.Fatalf("Market3 cost = %f", got)
	}
	// Market2's defining identity: 1 Slice costs the same as 128 KB.
	if Market2().Cost(Config{Slices: 1}) != Market2().Cost(Config{CacheKB: 128}) {
		t.Fatal("Market2 equal-area identity broken")
	}
	if len(Markets()) != 3 {
		t.Fatal("three markets expected")
	}
}

func TestUtilityValue(t *testing.T) {
	u := Utility{K: 2, Budget: 100}
	cfg := Config{Slices: 2, CacheKB: 0} // cost 2 under Market2
	// v = 100/2 = 50, U = 50 * 3^2 = 450.
	if got := u.Value(Market2(), 3, cfg); got != 450 {
		t.Fatalf("U = %f", got)
	}
	if got := u.Value(Market2(), 0, cfg); got != 0 {
		t.Fatalf("zero perf utility = %f", got)
	}
}

func TestUtilityBudgetLinearity(t *testing.T) {
	f := func(budget uint16, perf uint16) bool {
		b := float64(budget%1000) + 1
		p := float64(perf%100)/10 + 0.1
		cfg := Config{Slices: 2, CacheKB: 128}
		u1 := Utility{K: 2, Budget: b}.Value(Market2(), p, cfg)
		u2 := Utility{K: 2, Budget: 2 * b}.Value(Market2(), p, cfg)
		return math.Abs(u2-2*u1) < 1e-9*math.Abs(u1)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBestPicksKnownOptimum(t *testing.T) {
	// Performance saturates with cache; utility should pick a finite point.
	g := toyGrid(func(c Config) float64 {
		return float64(c.Slices) * (1 + float64(c.CacheKB)/(float64(c.CacheKB)+256))
	})
	cfg1, u1 := Utility1().Best(Market2(), g)
	cfg3, u3 := Utility3().Best(Market2(), g)
	if u1 <= 0 || u3 <= 0 {
		t.Fatal("degenerate best utilities")
	}
	// Utility3 weighs perf harder, so it never buys LESS than Utility1.
	if Market2().Cost(cfg3) < Market2().Cost(cfg1) {
		t.Fatalf("Utility3 chose cheaper config %v than Utility1's %v", cfg3, cfg1)
	}
}

func TestMetricMatchesMarket2Ordering(t *testing.T) {
	// Under Market2, perf^k/area and U_k order configurations identically.
	g := toyGrid(func(c Config) float64 {
		return float64(c.Slices) + float64(c.CacheKB)/512
	})
	for k := 1; k <= 3; k++ {
		u := Utility{K: k, Budget: DefaultBudget}
		cfgU, _ := u.Best(Market2(), g)
		cfgM, _ := BestByMetric(k, g)
		if cfgU != cfgM {
			t.Fatalf("k=%d: utility best %v != metric best %v", k, cfgU, cfgM)
		}
	}
}

func TestGME(t *testing.T) {
	if got := GME([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GME = %f", got)
	}
	if GME(nil) != 0 {
		t.Fatal("empty GME")
	}
	if GME([]float64{1, 0}) != 0 {
		t.Fatal("GME with zero element must be 0")
	}
}

// Two-benchmark toy suite with opposite preferences: "small" peaks on tiny
// configs, "big" needs cache. A single fixed architecture must lose to
// per-customer configuration.
func toySuite() Suite {
	small := toyGrid(func(c Config) float64 {
		// No benefit from cache or extra slices.
		return 1.0
	})
	big := toyGrid(func(c Config) float64 {
		return float64(c.Slices) * (0.2 + 0.8*float64(c.CacheKB)/(float64(c.CacheKB)+128))
	})
	return Suite{"small": small, "big": big}
}

func TestBestFixedAndGains(t *testing.T) {
	s := toySuite()
	utils := Utilities()
	fixed, err := BestFixed(s, utils, Market2())
	if err != nil {
		t.Fatal(err)
	}
	if !fixed.Valid() {
		t.Fatalf("fixed = %v", fixed)
	}
	gains, fixed2, err := FixedArchGains(s, utils, Market2())
	if err != nil {
		t.Fatal(err)
	}
	if fixed2 != fixed {
		t.Fatal("inconsistent fixed config")
	}
	// (2 benchmarks x 3 utilities) choose-2 with repetition = 21 points.
	if len(gains) != 21 {
		t.Fatalf("%d pair points, want 21", len(gains))
	}
	st := Summarize(gains)
	if st.Max < 1 || st.GMean < 1-1e-9 {
		t.Fatalf("sharing lost to a fixed architecture: %+v", st)
	}
	for _, g := range gains {
		if g.Gain < 1-1e-9 {
			t.Fatalf("pair %v gained %f < 1: per-customer optima cannot be worse than one fixed config", g, g.Gain)
		}
	}
}

func TestHeteroGains(t *testing.T) {
	s := toySuite()
	gains, perU, err := HeteroGains(s, Utilities(), Market2())
	if err != nil {
		t.Fatal(err)
	}
	if len(perU) != 3 {
		t.Fatalf("per-utility configs: %v", perU)
	}
	if len(gains) != 21 {
		t.Fatalf("%d points", len(gains))
	}
	// Heterogeneous is a strictly richer baseline than a single fixed
	// config, so gains must not exceed the Fig. 15 gains on average.
	fg, _, _ := FixedArchGains(s, Utilities(), Market2())
	if Summarize(gains).GMean > Summarize(fg).GMean+1e-9 {
		t.Fatal("hetero baseline cannot be weaker than the fixed baseline")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.Points != 0 || st.Max != 0 {
		t.Fatalf("%+v", st)
	}
}

func TestBestFixedErrors(t *testing.T) {
	if _, err := BestFixed(Suite{}, Utilities(), Market2()); err == nil {
		t.Fatal("empty suite accepted")
	}
	// Surfaces on different lattices must error.
	s := toySuite()
	s["small"] = surfaceOf([]int{1, 2, 4, 8}, []int{0, 64, 128, 512}, func(Config) float64 { return 1 })
	if _, err := BestFixed(s, Utilities(), Market2()); err == nil {
		t.Fatal("suite on two lattices accepted")
	}
}

// TestBestFixedTieBreak: an exact tie between fixed architectures resolves
// with PreferOnTie, like every other optimum, not to the configuration with
// fewer Slices.
func TestBestFixedTieBreak(t *testing.T) {
	// Under Market2/Utility1 both score exactly 50: 100/5*2.5 and 100/2*1.
	// The filler points of the lattice score 25 and 100/6*0.25.
	s := Suite{"b": sparseSurface([]int{1, 2}, []int{0, 512}, 0.25, map[Config]float64{
		{Slices: 1, CacheKB: 512}: 2.5,
		{Slices: 2, CacheKB: 0}:   1.0,
	})}
	got, err := BestFixed(s, []Utility{Utility1()}, Market2())
	if err != nil {
		t.Fatal(err)
	}
	if want := (Config{Slices: 2, CacheKB: 0}); got != want {
		t.Fatalf("BestFixed picked %v, want the cheaper %v", got, want)
	}
}

// TestBestTieBreakRule pins the explicit tie-breaking order: equal utility
// resolves to the lower cost, then the lower Slice count, then less cache.
func TestBestTieBreakRule(t *testing.T) {
	u := Utility{K: 1, Budget: 100}
	m := Market2()
	// U_1 = (B/cost)*P, so P(c) = cost(c) makes these configurations tie
	// at exactly U = B; the rest of the lattice scores B/2.
	tied := map[Config]bool{
		{Slices: 4, CacheKB: 1024}: true,
		{Slices: 2, CacheKB: 256}:  true,
		{Slices: 1, CacheKB: 128}:  true, // cost 2, ties (2 Slices, 0KB) on cost
		{Slices: 2, CacheKB: 0}:    true, // cost 2
	}
	g := surfaceOf([]int{1, 2, 4}, []int{0, 128, 256, 1024}, func(c Config) float64 {
		if tied[c] {
			return m.Cost(c)
		}
		return m.Cost(c) / 2
	})
	best, bestU := u.Best(m, g)
	if bestU != u.Budget {
		t.Fatalf("tie plateau broken: best utility %.6f != %.6f", bestU, u.Budget)
	}
	// Cost tie at 2 between (1 Slice, 128KB) and (2 Slices, 0KB): the rule
	// prefers fewer Slices.
	want := Config{Slices: 1, CacheKB: 128}
	if best != want {
		t.Fatalf("tie-break picked %v, want %v (lower cost, then fewer Slices)", best, want)
	}
	if !PreferOnTie(m, Config{Slices: 1, CacheKB: 128}, Config{Slices: 2, CacheKB: 0}) {
		t.Fatal("PreferOnTie: equal cost must prefer fewer Slices")
	}
	if !PreferOnTie(m, Config{Slices: 2, CacheKB: 0}, Config{Slices: 2, CacheKB: 64}) {
		t.Fatal("PreferOnTie: cheaper config must win")
	}
	if !PreferOnTie(m, Config{Slices: 1, CacheKB: 0}, Config{Slices: 1, CacheKB: 64}) {
		t.Fatal("PreferOnTie: equal cost and Slices must prefer less cache")
	}
	// Better is a strict total order on (score, config): exactly one of
	// a<b, b<a for distinct configs at equal score.
	a, b := Config{Slices: 3, CacheKB: 64}, Config{Slices: 2, CacheKB: 192}
	if Better(m, 1, a, 1, b) == Better(m, 1, b, 1, a) {
		t.Fatal("Better is not antisymmetric on a tie")
	}
}

// TestBestAllocFree pins the satellite claim: the optimum reductions no
// longer allocate (they previously sorted a fresh []Config per call).
func TestBestAllocFree(t *testing.T) {
	g := toyGrid(func(c Config) float64 { return float64(c.Slices) })
	u, m := Utility2(), Market2()
	if n := testing.AllocsPerRun(20, func() { u.Best(m, g) }); n != 0 {
		t.Fatalf("Utility.Best allocates %.0f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { BestByMetric(2, g) }); n != 0 {
		t.Fatalf("BestByMetric allocates %.0f objects per call, want 0", n)
	}
}

// BenchmarkUtilityBest measures the hot path of every tatonnement round:
// one customer's best response over a full 72-point surface.
func BenchmarkUtilityBest(b *testing.B) {
	g := surfaceOf(optSlices, optCaches, func(c Config) float64 {
		return float64(c.Slices) * (1 + float64(c.CacheKB)/8192)
	})
	u, m := Utility2(), Market2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.Best(m, g)
	}
}
