package econ

import (
	"fmt"
	"math"
	"slices"
)

// Market clearing (§2.3 of the paper): "the cloud provider auctions off all
// resources down to the ALU, KB of cache, ...". Demand depends only on the
// price ratio r = BankCost/SliceCost: at prices (ps, r·ps) a customer's
// utility (B/cost)·P^K is maximized by the configuration maximizing
// P^K/(s + r·b), whatever B and ps, so one (surface, K) group has one choice
// at each r. The aggregate h(r) = Slice demand / bank demand is
// non-decreasing in r (as banks get dearer a choice only switches to fewer
// banks per Slice), so the clearing ratio is a monotone root.

// Customer is one IaaS tenant bidding in the market.
type Customer struct {
	// Name labels the tenant.
	Name string
	// Perf is the tenant's measured performance surface.
	Perf *Surface
	// Utility is the tenant's utility family (K) and budget.
	Utility Utility
}

// Supply is the chip's rentable resources.
type Supply struct {
	Slices int
	Banks  int
}

// ClearingResult describes the auction outcome.
type ClearingResult struct {
	// Prices is the clearing price vector.
	Prices Market
	// Iterations counts the demand evaluations (price ratios) tried.
	Iterations int
	// Converged reports an exact clearing: the root of h(r) lies inside
	// the ratio bracket and no choice differs between its two sides, so
	// both resources sell out (with no banks for sale: the Slices do).
	// False is a gap: the binding resource sells out and SliceDemand and
	// BankDemand show the other's idle share.
	Converged bool
	// Allocations holds each customer's chosen configuration and VCore
	// count at the clearing prices, in input order.
	Allocations []Allocation
	// SliceDemand and BankDemand are total demand at the clearing prices.
	SliceDemand, BankDemand float64
	// TotalUtility is the sum of customer utilities at the clearing point.
	TotalUtility float64
}

// Allocation is one customer's market outcome.
type Allocation struct {
	Customer string
	Config   Config
	VCores   float64
	Utility  float64
}

// The clearing ratio r = BankCost/SliceCost is searched over this bracket.
const (
	ratioLo = 0x1p-40
	ratioHi = 0x1p40
)

// ClearMarket clears the market for customers over supply. It bisects r on
// its float64 bit pattern over [2^-40, 2^40] until the two sides of the
// root are adjacent floats, keeps the side that leaves less of the slacker
// resource idle (the upper on a tie), and sets the Slice price to the
// larger of Slice demand per Slice and bank demand per bank at prices
// (1, r): the binding resource sells out and nothing is oversold. With no
// banks for sale r is the top of the bracket, and a choice still needing
// banks there is an error. VCores are fractional, the paper's
// time-multiplexed leasing. Customers sharing a surface pointer and K share
// one argmax per ratio, but demand is summed per customer in input order,
// so the result never depends on the grouping. It refuses an empty
// population, a supply without Slices or with negative banks, K < 1, a
// budget that is not finite and positive, and a surface not covering its
// lattice.
func ClearMarket(customers []Customer, supply Supply) (*ClearingResult, error) {
	if len(customers) == 0 {
		return nil, fmt.Errorf("econ: no customers")
	}
	if supply.Slices <= 0 || supply.Banks < 0 {
		return nil, fmt.Errorf("econ: invalid supply %+v", supply)
	}
	cl, err := newClearing(customers)
	if err != nil {
		return nil, err
	}
	d, converged, err := cl.root(supply)
	if err != nil {
		return nil, err
	}
	return cl.result(supply, d, converged)
}

// clearing holds a population's (surface, K) groups.
type clearing struct {
	customers []Customer
	group     []int      // customer -> its group
	pk        []*Surface // group -> P^K at every point of its surface
	evals     int
}

func newClearing(customers []Customer) (*clearing, error) {
	type key struct {
		perf *Surface
		k    int
	}
	cl := &clearing{customers: customers, group: make([]int, len(customers))}
	groups := make(map[key]int)
	for i, c := range customers {
		u := c.Utility
		if u.K < 1 {
			return nil, fmt.Errorf("econ: customer %q: utility exponent k = %d, want 1 or more", c.Name, u.K)
		}
		if !(u.Budget > 0) || math.IsInf(u.Budget, 1) {
			return nil, fmt.Errorf("econ: customer %q: budget %v, want a finite value above 0", c.Name, u.Budget)
		}
		if c.Perf == nil || c.Perf.Lattice == nil || len(c.Perf.Values) != c.Perf.Lattice.Size() {
			return nil, fmt.Errorf("econ: customer %q: no performance surface over a lattice", c.Name)
		}
		k := key{c.Perf, u.K}
		g, ok := groups[k]
		if !ok {
			g = len(cl.pk)
			groups[k] = g
			pk := NewSurface(c.Perf.Lattice)
			for x, p := range c.Perf.Values {
				pk.Values[x] = math.Pow(p, float64(u.K))
			}
			cl.pk = append(cl.pk, pk)
		}
		cl.group[i] = g
	}
	return cl, nil
}

// side is one evaluated price ratio r: every group's choice there and the
// customers' total Slice and bank demand at prices (1, r).
type side struct {
	r      float64
	choice []Config
	s, b   float64
}

// eval evaluates demand at prices (1, r): one argmax per group, then the
// customers' demand summed in input order.
func (cl *clearing) eval(r float64) side {
	cl.evals++
	m := Market{SliceCost: 1, BankCost: r}
	d := side{r: r, choice: make([]Config, len(cl.pk))}
	for g, pk := range cl.pk {
		d.choice[g], _ = argmax(m, pk, func(c Config, v float64) float64 { return v / m.Cost(c) })
	}
	for i, c := range cl.customers {
		cfg := d.choice[cl.group[i]]
		v := c.Utility.Budget / m.Cost(cfg)
		d.s += v * float64(cfg.Slices)
		d.b += v * float64(cfg.Banks())
	}
	return d
}

// root returns the side the market clears at and whether the clearing is
// exact.
func (cl *clearing) root(supply Supply) (side, bool, error) {
	if supply.Banks == 0 {
		top := cl.eval(ratioHi)
		for _, c := range top.choice {
			if c.Banks() > 0 {
				return side{}, false, fmt.Errorf("econ: no banks for sale, but %v is chosen even at bank price %g times the Slice price", c, ratioHi)
			}
		}
		return top, true, nil
	}
	// h(r) >= T for T = Slice supply / bank supply, by cross-multiplication
	// so that no demand is divided by.
	ss, sb := float64(supply.Slices), float64(supply.Banks)
	above := func(d side) bool { return d.s*sb >= d.b*ss }
	lo := cl.eval(ratioLo)
	if above(lo) {
		return lo, false, nil // the root lies below the bracket
	}
	hi := cl.eval(ratioHi)
	if !above(hi) {
		return hi, false, nil // the root lies above the bracket
	}
	for math.Float64bits(hi.r)-math.Float64bits(lo.r) > 1 {
		mid := math.Float64frombits((math.Float64bits(lo.r) + math.Float64bits(hi.r)) / 2)
		if d := cl.eval(mid); above(d) {
			hi = d
		} else {
			lo = d
		}
	}
	converged := slices.Equal(lo.choice, hi.choice)
	// At lo banks bind and the Slices are used to h(lo)/T; at hi Slices
	// bind and the banks are used to T/h(hi).
	if lo.s*sb/(lo.b*ss) > hi.b*ss/(hi.s*sb) {
		return lo, converged, nil
	}
	return hi, converged, nil
}

// result prices the clearing at side d and reports every customer's
// allocation in input order.
func (cl *clearing) result(supply Supply, d side, converged bool) (*ClearingResult, error) {
	ps := d.s / float64(supply.Slices)
	if supply.Banks > 0 {
		ps = math.Max(ps, d.b/float64(supply.Banks))
	}
	prices := Market{Name: "cleared", SliceCost: ps, BankCost: d.r * ps}
	if !(ps > 0) || math.IsInf(prices.BankCost, 1) {
		return nil, fmt.Errorf("econ: budgets out of the range prices can take (Slice price %g, bank price %g)", ps, prices.BankCost)
	}
	res := &ClearingResult{Prices: prices, Iterations: cl.evals, Converged: converged}
	res.Allocations = make([]Allocation, len(cl.customers))
	for i, c := range cl.customers {
		cfg := d.choice[cl.group[i]]
		p, _ := c.Perf.At(cfg) // cfg is a point of the surface: argmax chose it
		v := c.Utility.Budget / prices.Cost(cfg)
		u := c.Utility.Value(prices, p, cfg)
		res.Allocations[i] = Allocation{Customer: c.Name, Config: cfg, VCores: v, Utility: u}
		res.SliceDemand += v * float64(cfg.Slices)
		res.BankDemand += v * float64(cfg.Banks())
		res.TotalUtility += u
	}
	return res, nil
}
