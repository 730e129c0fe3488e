package econ

import "fmt"

// Market clearing (§2.3 of the paper): "the cloud provider auctions off all
// resources down to the ALU, KB of cache, ...". Section 2 argues that
// pricing Slices and banks individually lets the market clear at prices
// reflecting instantaneous demand. This file implements that auction as a
// tatonnement (iterative price adjustment): given the chip's fixed supply
// of Slices and banks and a population of utility-maximizing customers,
// prices rise on over-demanded resources and fall on idle ones until demand
// meets supply.

// Customer is one IaaS tenant bidding in the market.
type Customer struct {
	// Name labels the tenant.
	Name string
	// Perf is the tenant's measured performance surface.
	Perf *Surface
	// Utility is the tenant's utility family (K) and budget.
	Utility Utility
}

// demand returns the tenant's resource demand at the given prices: the
// utility-maximizing configuration times the number of VCores the budget
// affords.
func (c *Customer) demand(m Market) (cfg Config, vcores float64) {
	cfg, _ = c.Utility.Best(m, c.Perf)
	cost := m.Cost(cfg)
	if cost <= 0 {
		return cfg, 0
	}
	return cfg, c.Utility.Budget / cost
}

// Bidder abstracts one market participant's best response to a price
// vector. Customer (full performance surface) and the incremental market
// engine's probe-driven searcher (internal/market) both implement it; the
// tatonnement below is written against this interface so the batch and
// online paths share one clearing algorithm and, given identical responses,
// produce byte-identical ClearingResults.
type Bidder interface {
	// BidderName labels the participant in ClearingResult.Allocations.
	BidderName() string
	// Respond returns the participant's utility-maximizing configuration at
	// prices m, the fractional VCores its budget affords there, and the
	// utility realized. Responses must be deterministic in m.
	Respond(m Market) (cfg Config, vcores, utility float64, err error)
}

// BidderName implements Bidder.
func (c *Customer) BidderName() string { return c.Name }

// Respond implements Bidder by exhaustive sweep of the performance surface.
func (c *Customer) Respond(m Market) (Config, float64, float64, error) {
	cfg, v := c.demand(m)
	p, _ := c.Perf.At(cfg) // cfg is a point of the surface: Best chose it
	return cfg, v, c.Utility.Value(m, p, cfg), nil
}

// Supply is the chip's rentable resources.
type Supply struct {
	Slices int
	Banks  int
}

// ClearingResult describes the auction outcome.
type ClearingResult struct {
	// Prices is the market-clearing price vector.
	Prices Market
	// Iterations is the tatonnement round whose prices were returned: the
	// clearing round when Converged, else the least-oversold round seen,
	// which can be below maxIter.
	Iterations int
	// Converged reports that demand fell within tolerance of supply:
	// SliceDemand <= (1+tol)*Slices and BankDemand <= (1+tol)*Banks (at
	// most half a bank when the supply has none). A converged result can
	// thus oversell each resource by up to tol. False means the round cap
	// ran out and Prices are the least-oversold prices observed, at which
	// some resource may be over-demanded by more.
	Converged bool
	// Allocations holds each customer's chosen configuration and VCore
	// count at the clearing prices, in input order.
	Allocations []Allocation
	// SliceDemand and BankDemand are total demand at the final prices.
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

// ClearMarket runs the tatonnement: starting from area prices (Market2),
// each round computes aggregate demand, then nudges each resource's price
// by its relative excess demand. Because configurations are discrete, exact
// supply=demand equality need not exist (demand jumps at price thresholds),
// and idle capacity is allowed. The auction stops at the first round whose
// demand is at most (1+tol) times supply for every resource — so a
// converged clearing can oversell each resource by up to tol (0.05 when tol
// is not positive) — or after maxIter rounds, in which case the result has
// Converged false. Demand is declared in fractional VCores,
// which is the paper's time-multiplexed leasing: renting 2.5 VCores means 2
// full-time and one half-time.
func ClearMarket(customers []Customer, supply Supply, tol float64, maxIter int) (*ClearingResult, error) {
	bidders := make([]Bidder, len(customers))
	for i := range customers {
		bidders[i] = &customers[i]
	}
	return ClearMarketWith(bidders, supply, tol, maxIter)
}

// ClearMarketWith is ClearMarket over abstract Bidders. The price
// trajectory depends only on the sequence of responses, so a probe-driven
// bidder whose responses match a grid bidder's yields a byte-identical
// ClearingResult — the property the allocation core's churn tests assert.
func ClearMarketWith(bidders []Bidder, supply Supply, tol float64, maxIter int) (*ClearingResult, error) {
	if len(bidders) == 0 {
		return nil, fmt.Errorf("econ: no customers")
	}
	if supply.Slices <= 0 || supply.Banks < 0 {
		return nil, fmt.Errorf("econ: invalid supply %+v", supply)
	}
	if tol <= 0 {
		tol = 0.05
	}
	if maxIter <= 0 {
		maxIter = 4000
	}
	m := Market2()
	m.Name = "cleared"
	var sliceD, bankD float64
	best := m
	bestOver := 1e18
	bestIt := 0
	for it := 1; it <= maxIter; it++ {
		sliceD, bankD = 0, 0
		for i := range bidders {
			cfg, v, _, err := bidders[i].Respond(m)
			if err != nil {
				return nil, err
			}
			sliceD += v * float64(cfg.Slices)
			bankD += v * float64(cfg.Banks())
		}
		exS := sliceD/float64(supply.Slices) - 1
		exB := 0.0
		if supply.Banks > 0 {
			exB = bankD/float64(supply.Banks) - 1
		} else if bankD > 0.5 {
			exB = 1 // zero supply: keep raising the price until demand dies
		}
		if exS <= tol && exB <= tol {
			res, err := clearingAt(bidders, m, it, sliceD, bankD)
			if err != nil {
				return nil, err
			}
			res.Converged = true
			return res, nil
		}
		// Discrete demand can limit-cycle around the clearing point;
		// remember the least-oversold prices seen so far.
		if over := maxf(exS, exB); over < bestOver {
			bestOver, best, bestIt = over, m, it
		}
		// Asymmetric ratchet: an over-demanded resource's price rises in
		// proportion to its excess demand; an idle resource's price falls
		// only gently (a provider would rather leave capacity idle than
		// oversell it). The step decays so the search settles, and prices
		// never fall below a floor so the chip is never given away.
		step := 0.3 / (1 + 0.02*float64(it))
		if step < 0.02 {
			step = 0.02
		}
		adjust := func(price, excess float64) float64 {
			if excess > 0 {
				return clampPrice(price * (1 + step*excess))
			}
			return clampPrice(price * (1 + 0.25*step*excess))
		}
		m.SliceCost = adjust(m.SliceCost, exS)
		m.BankCost = adjust(m.BankCost, exB)
	}
	// No exact clearing point within maxIter (discrete configurations can
	// make one impossible): return the least-oversold prices observed,
	// marked unconverged; the caller can inspect demand vs supply.
	res, err := clearingAt(bidders, best, bestIt, 0, 0)
	if err != nil {
		return nil, err
	}
	for _, a := range res.Allocations {
		res.SliceDemand += a.VCores * float64(a.Config.Slices)
		res.BankDemand += a.VCores * float64(a.Config.Banks())
	}
	return res, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func clampPrice(p float64) float64 {
	const floor = 0.001
	if p < floor {
		return floor
	}
	return p
}

func clearingAt(bidders []Bidder, m Market, it int, sliceD, bankD float64) (*ClearingResult, error) {
	res := &ClearingResult{Prices: m, Iterations: it, SliceDemand: sliceD, BankDemand: bankD}
	for i := range bidders {
		cfg, v, u, err := bidders[i].Respond(m)
		if err != nil {
			return nil, err
		}
		res.Allocations = append(res.Allocations, Allocation{
			Customer: bidders[i].BidderName(), Config: cfg, VCores: v, Utility: u,
		})
		res.TotalUtility += u
	}
	return res, nil
}
