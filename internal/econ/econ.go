// Package econ implements the paper's economic model (§2, §5.6-§5.10): IaaS
// customers buy fine-grain resources (Slices, 64 KB cache banks) under a
// budget and maximize their own utility; the provider's market efficiency is
// the total utility realized. The package is pure: it consumes performance
// measurements P(c,s) produced by the simulator and computes optima, market
// comparisons, datacenter mixes, and dynamic-phase gains.
package econ

import (
	"fmt"
	"math"
)

// Config is a VCore configuration: Slice count and total L2 in KB.
type Config struct {
	Slices  int
	CacheKB int
}

func (c Config) String() string { return fmt.Sprintf("(%dKB, %d)", c.CacheKB, c.Slices) }

// Banks returns the number of 64 KB banks.
func (c Config) Banks() int { return c.CacheKB / 64 }

// Valid applies Equation 3 of the paper: 0 <= cache <= 8 MB, 1 <= s <= 8.
func (c Config) Valid() bool {
	return c.Slices >= 1 && c.Slices <= 8 && c.CacheKB >= 0 && c.CacheKB <= 8192 && c.CacheKB%64 == 0
}

// Surface holds one benchmark's measured performance P(c,s) at every point
// of a configuration lattice. Performance is any throughput-like metric (the
// harness uses committed instructions per cycle); only ratios matter
// downstream. Values[x] is the performance at Lattice.Point(x), so every
// point of the lattice has a value and a walk over Values visits the
// configurations in (Slices, CacheKB) order.
type Surface struct {
	Lattice *Lattice
	Values  []float64
}

// NewSurface returns a surface over l with every value zero.
func NewSurface(l *Lattice) *Surface {
	return &Surface{Lattice: l, Values: make([]float64, l.Size())}
}

// At returns the value at cfg, and false when cfg is not a point of the
// surface's lattice.
func (s *Surface) At(cfg Config) (float64, bool) {
	x, ok := s.Lattice.Index(cfg)
	if !ok {
		return 0, false
	}
	return s.Values[x], true
}

// Market prices the two sub-core resources. Costs are in abstract dollars;
// under Market2 they equal area units so that maximizing utility coincides
// with the paper's perf^k/area metrics.
type Market struct {
	Name      string
	SliceCost float64 // per Slice
	BankCost  float64 // per 64 KB bank
}

// The three markets of §5.7: Market2 prices resources at area cost (one
// Slice = 128 KB of cache = 2 banks); Market1 prices Slices at four times
// their equal-area cost (Slice demand outstrips supply); Market3 prices
// cache at four times its equal-area cost.
func Market1() Market { return Market{Name: "Market1", SliceCost: 4.0, BankCost: 0.5} }
func Market2() Market { return Market{Name: "Market2", SliceCost: 1.0, BankCost: 0.5} }
func Market3() Market { return Market{Name: "Market3", SliceCost: 1.0, BankCost: 2.0} }

// Markets returns all three in order.
func Markets() []Market { return []Market{Market1(), Market2(), Market3()} }

// Cost returns the price of one VCore configuration.
func (m Market) Cost(c Config) float64 {
	return m.SliceCost*float64(c.Slices) + m.BankCost*float64(c.Banks())
}

// Utility is the paper's utility family (Table 5): U_k = v * P(c,s)^k with
// v = B / (Cc*c + Cs*s) VCores affordable under budget B (Equations 1-4).
// K=1 is the throughput/latency-tolerant customer (U_LT), K=2 favours
// single-stream performance, K=3 is the OLDI customer (U_OLDI).
type Utility struct {
	K      int
	Budget float64
}

// Utility1..Utility3 use a fixed budget; utility GAINS are budget-invariant.
func Utility1() Utility { return Utility{K: 1, Budget: DefaultBudget} }
func Utility2() Utility { return Utility{K: 2, Budget: DefaultBudget} }
func Utility3() Utility { return Utility{K: 3, Budget: DefaultBudget} }

// DefaultBudget is the customer budget used throughout the evaluation: it
// buys one maximal VCore (8 Slices + 8 MB) under Market2 with room to spare.
const DefaultBudget = 100.0

// Utilities returns Utility1..Utility3 in order.
func Utilities() []Utility { return []Utility{Utility1(), Utility2(), Utility3()} }

func (u Utility) String() string { return fmt.Sprintf("Utility%d", u.K) }

// Value computes U = v * P^K for a configuration under a market. The number
// of VCores v may be fractional (customers rent over time; only ratios
// matter). Configurations the budget cannot afford at least a sliver of
// return 0.
func (u Utility) Value(m Market, perf float64, cfg Config) float64 {
	cost := m.Cost(cfg)
	if cost <= 0 {
		return 0
	}
	v := u.Budget / cost
	return v * math.Pow(perf, float64(u.K))
}

// PreferOnTie is the explicit tie-breaking rule for equal-score optima: the
// cheaper configuration wins (a customer never pays more for the same
// utility), then the one with fewer Slices, then less cache. The rule makes
// every optimum search a reduction under a total order — deterministic
// regardless of candidate enumeration order — which churn re-auctions rely
// on: an equal-utility plateau must resolve to the same configuration on
// every re-pricing, or allocations would flap with zero utility change.
//
//ssim:hotpath
func PreferOnTie(m Market, a, b Config) bool {
	ca, cb := m.Cost(a), m.Cost(b)
	if ca != cb {
		return ca < cb
	}
	if a.Slices != b.Slices {
		return a.Slices < b.Slices
	}
	return a.CacheKB < b.CacheKB
}

// Better reports whether configuration a at score va beats configuration b
// at score vb under the explicit tie-breaking rule.
//
//ssim:hotpath
func Better(m Market, va float64, a Config, vb float64, b Config) bool {
	if va != vb {
		return va > vb
	}
	return PreferOnTie(m, a, b)
}

// argmax reduces the surface to the configuration whose score is best under
// the Better total order for market m. It walks the lattice in index order;
// the total order makes the outcome independent of that order, and the walk
// allocates nothing (Utility.Best runs once per customer per tatonnement
// round under churn — see BenchmarkUtilityBest). Every lattice point is a
// valid configuration (NewLattice checks), so none is skipped.
func argmax(m Market, s *Surface, score func(c Config, p float64) float64) (best Config, bestV float64) {
	for x, p := range s.Values {
		c := s.Lattice.Point(x)
		v := score(c, p)
		if x == 0 || Better(m, v, c, bestV, best) {
			best, bestV = c, v
		}
	}
	return best, bestV
}

// scored is argmax's score for a surface whose values are already scores.
func scored(_ Config, v float64) float64 { return v }

// Best returns the utility-maximizing configuration on the surface,
// resolving ties with PreferOnTie.
func (u Utility) Best(m Market, s *Surface) (Config, float64) {
	return argmax(m, s, func(c Config, p float64) float64 { return u.Value(m, p, c) })
}

// Metric is the paper's performance-area efficiency metric perf^k/area
// (Table 4). It equals utility under Market2 up to a constant factor.
func Metric(k int, perf float64, cfg Config) float64 {
	a := Market2().Cost(cfg) // area units
	return math.Pow(perf, float64(k)) / a
}

// BestByMetric returns the perf^k/area-maximizing configuration, resolving
// ties with PreferOnTie under area prices (Market2).
func BestByMetric(k int, s *Surface) (Config, float64) {
	return argmax(Market2(), s, func(c Config, p float64) float64 { return Metric(k, p, c) })
}

// GME returns the geometric mean of xs (the aggregate SPEC-style statistic
// SSim reports, §5.2).
func GME(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
