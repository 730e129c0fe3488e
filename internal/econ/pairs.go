package econ

import (
	"fmt"
	"sort"
)

// Suite is the measured performance surfaces of every benchmark.
type Suite map[string]*Surface

// Names returns benchmark names in sorted order.
func (s Suite) Names() []string {
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BestFixed returns the single configuration that maximizes the geometric
// mean of utility across every (benchmark, utility-function) combination —
// the best possible *static fixed architecture* a commodity-multicore
// provider could build for this customer population (§5.8, Fig. 15). Ties
// resolve with PreferOnTie under m. Every surface must be on one lattice.
func BestFixed(s Suite, utils []Utility, m Market) (Config, error) {
	if len(s) == 0 || len(utils) == 0 {
		return Config{}, fmt.Errorf("econ: empty suite or utility set")
	}
	names := s.Names()
	lat := s[names[0]].Lattice
	for _, name := range names[1:] {
		if !s[name].Lattice.Equal(lat) {
			return Config{}, fmt.Errorf("econ: %s and %s are measured on different lattices", names[0], name)
		}
	}
	// Each configuration scores the GME of its utilities.
	scores := NewSurface(lat)
	vals := make([]float64, 0, len(names)*len(utils))
	for x := range scores.Values {
		cfg := lat.Point(x)
		vals = vals[:0]
		for _, name := range names {
			for _, u := range utils {
				vals = append(vals, u.Value(m, s[name].Values[x], cfg))
			}
		}
		scores.Values[x] = GME(vals)
	}
	best, _ := argmax(m, scores, scored)
	return best, nil
}

// BestFixedPerUtility returns, for each utility function, the configuration
// maximizing the GME of that utility across benchmarks — the per-class cores
// a *heterogeneous* multicore would provision (§5.8, Fig. 16).
func BestFixedPerUtility(s Suite, utils []Utility, m Market) (map[int]Config, error) {
	out := make(map[int]Config, len(utils))
	for _, u := range utils {
		cfg, err := BestFixed(s, []Utility{u}, m)
		if err != nil {
			return nil, fmt.Errorf("econ: %v: %w", u, err)
		}
		out[u.K] = cfg
	}
	return out, nil
}

// PairGain is one point of Figs. 15/16: two (benchmark, utility) customers
// sharing the provider, and the Sharing Architecture's utility relative to
// the fixed alternative.
type PairGain struct {
	B1, B2 string
	K1, K2 int
	Gain   float64
}

// pairKey orders (benchmark, utility) combinations deterministically.
type pairKey struct {
	bench string
	k     int
}

func combos(s Suite, utils []Utility) []pairKey {
	var out []pairKey
	for _, b := range s.Names() {
		for _, u := range utils {
			out = append(out, pairKey{bench: b, k: u.K})
		}
	}
	return out
}

func utilByK(utils []Utility, k int) Utility {
	for _, u := range utils {
		if u.K == k {
			return u
		}
	}
	return Utility{K: k, Budget: DefaultBudget}
}

// FixedArchGains computes Fig. 15: for every unordered pair of (benchmark,
// utility) customers, the summed utility when each runs its optimal Sharing
// Architecture VCore divided by the summed utility on the suite-wide best
// static fixed configuration.
func FixedArchGains(s Suite, utils []Utility, m Market) ([]PairGain, Config, error) {
	fixed, err := BestFixed(s, utils, m)
	if err != nil {
		return nil, Config{}, err
	}
	cs := combos(s, utils)
	var out []PairGain
	for i := 0; i < len(cs); i++ {
		for j := i; j < len(cs); j++ {
			a, b := cs[i], cs[j]
			ua, ub := utilByK(utils, a.k), utilByK(utils, b.k)
			_, optA := ua.Best(m, s[a.bench])
			_, optB := ub.Best(m, s[b.bench])
			pa, _ := s[a.bench].At(fixed) // BestFixed chose fixed from the suite's one lattice
			pb, _ := s[b.bench].At(fixed)
			den := ua.Value(m, pa, fixed) + ub.Value(m, pb, fixed)
			if den <= 0 {
				continue
			}
			out = append(out, PairGain{B1: a.bench, B2: b.bench, K1: a.k, K2: b.k, Gain: (optA + optB) / den})
		}
	}
	return out, fixed, nil
}

// HeteroGains computes Fig. 16: the fixed alternative is a heterogeneous
// machine offering, per utility class, the configuration optimal for that
// class across the whole suite; each customer runs on their class's core.
func HeteroGains(s Suite, utils []Utility, m Market) ([]PairGain, map[int]Config, error) {
	perU, err := BestFixedPerUtility(s, utils, m)
	if err != nil {
		return nil, nil, err
	}
	cs := combos(s, utils)
	var out []PairGain
	for i := 0; i < len(cs); i++ {
		for j := i; j < len(cs); j++ {
			a, b := cs[i], cs[j]
			ua, ub := utilByK(utils, a.k), utilByK(utils, b.k)
			_, optA := ua.Best(m, s[a.bench])
			_, optB := ub.Best(m, s[b.bench])
			fa, fb := perU[a.k], perU[b.k]
			pa, _ := s[a.bench].At(fa) // BestFixed chose fa and fb from the suite's one lattice
			pb, _ := s[b.bench].At(fb)
			den := ua.Value(m, pa, fa) + ub.Value(m, pb, fb)
			if den <= 0 {
				continue
			}
			out = append(out, PairGain{B1: a.bench, B2: b.bench, K1: a.k, K2: b.k, Gain: (optA + optB) / den})
		}
	}
	return out, perU, nil
}

// GainStats summarizes a gain distribution.
type GainStats struct {
	Points                 int
	Max, Mean              float64
	GMean                  float64
	FracAbove1, FracAbove2 float64
}

// Summarize reduces pair gains to headline statistics.
func Summarize(gains []PairGain) GainStats {
	st := GainStats{Points: len(gains)}
	if len(gains) == 0 {
		return st
	}
	var sum float64
	vals := make([]float64, 0, len(gains))
	for _, g := range gains {
		sum += g.Gain
		vals = append(vals, g.Gain)
		if g.Gain > st.Max {
			st.Max = g.Gain
		}
		if g.Gain >= 1 {
			st.FracAbove1++
		}
		if g.Gain >= 2 {
			st.FracAbove2++
		}
	}
	st.Mean = sum / float64(len(gains))
	st.GMean = GME(vals)
	st.FracAbove1 /= float64(len(gains))
	st.FracAbove2 /= float64(len(gains))
	return st
}
