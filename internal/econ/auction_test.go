package econ

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// auctionSuite: one cache-hungry tenant, one slice-hungry tenant.
func auctionCustomers() []Customer {
	cacheLover := toyGrid(func(c Config) float64 {
		return 0.5 + 2*float64(c.CacheKB)/(float64(c.CacheKB)+256)
	})
	sliceLover := toyGrid(func(c Config) float64 {
		return float64(c.Slices)
	})
	return []Customer{
		{Name: "analytics", Perf: cacheLover, Utility: Utility{K: 2, Budget: 300}},
		{Name: "batch", Perf: sliceLover, Utility: Utility{K: 1, Budget: 300}},
	}
}

func TestClearMarketBalancesDemand(t *testing.T) {
	supply := Supply{Slices: 64, Banks: 64}
	res, err := ClearMarket(auctionCustomers(), supply, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SliceDemand > float64(supply.Slices)*1.06 {
		t.Fatalf("slices over-demanded at clearing: %.1f for %d", res.SliceDemand, supply.Slices)
	}
	if res.BankDemand > float64(supply.Banks)*1.06 {
		t.Fatalf("banks over-demanded at clearing: %.1f for %d", res.BankDemand, supply.Banks)
	}
	if len(res.Allocations) != 2 || res.TotalUtility <= 0 {
		t.Fatalf("allocations: %+v", res.Allocations)
	}
	for _, a := range res.Allocations {
		if !a.Config.Valid() || a.VCores <= 0 {
			t.Fatalf("degenerate allocation %+v", a)
		}
	}
}

// TestClearMarketConverged: a clearing that meets supply within tolerance
// reports Converged; one stopped by the round cap, with demand far over
// supply, reports that it did not converge instead of passing its
// least-oversold prices off as a clearing.
func TestClearMarketConverged(t *testing.T) {
	res, err := ClearMarket(auctionCustomers(), Supply{Slices: 64, Banks: 64}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("normal clearing reports unconverged: %+v", res)
	}
	capped, err := ClearMarket(auctionCustomers(), Supply{Slices: 1, Banks: 1}, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Converged {
		t.Fatalf("clearing stopped by a 2-round cap reports converged: %+v", capped)
	}
	if capped.Iterations < 1 || capped.Iterations > 2 {
		t.Fatalf("capped clearing returned round %d, want 1 or 2", capped.Iterations)
	}
	if capped.SliceDemand <= 1.05 && capped.BankDemand <= 1.05 {
		t.Fatalf("capped clearing is within tolerance (slices %.2f, banks %.2f): the cap was not what stopped it",
			capped.SliceDemand, capped.BankDemand)
	}
}

func TestClearMarketScarcityRaisesPrices(t *testing.T) {
	// Halving the supply must raise at least one clearing price.
	rich, err := ClearMarket(auctionCustomers(), Supply{Slices: 256, Banks: 256}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	poor, err := ClearMarket(auctionCustomers(), Supply{Slices: 32, Banks: 32}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	richTotal := rich.Prices.SliceCost + rich.Prices.BankCost
	poorTotal := poor.Prices.SliceCost + poor.Prices.BankCost
	if poorTotal <= richTotal {
		t.Fatalf("scarcity must raise prices: rich %.3f vs poor %.3f", richTotal, poorTotal)
	}
	// And scarce-chip tenants end up with less utility.
	if poor.TotalUtility >= rich.TotalUtility {
		t.Fatalf("utility should fall with supply: %.1f vs %.1f", poor.TotalUtility, rich.TotalUtility)
	}
}

func TestClearMarketNoBanks(t *testing.T) {
	res, err := ClearMarket(auctionCustomers(), Supply{Slices: 64, Banks: 0}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With no banks for sale their price must have been driven up, pushing
	// customers toward cache-free configurations.
	if res.BankDemand > 1 {
		t.Fatalf("bank demand %.2f with zero supply; price %.3f", res.BankDemand, res.Prices.BankCost)
	}
}

func TestClearMarketErrors(t *testing.T) {
	if _, err := ClearMarket(nil, Supply{Slices: 1}, 0, 0); err == nil {
		t.Fatal("no customers accepted")
	}
	if _, err := ClearMarket(auctionCustomers(), Supply{Slices: 0}, 0, 0); err == nil {
		t.Fatal("zero supply accepted")
	}
}

func TestClearMarketBudgetScalesDemandNotPrices(t *testing.T) {
	// Doubling every budget doubles willingness to pay; clearing demand
	// still equals supply, so allocations stay feasible.
	cs := auctionCustomers()
	for i := range cs {
		cs[i].Utility.Budget *= 2
	}
	res, err := ClearMarket(cs, Supply{Slices: 64, Banks: 64}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SliceDemand > 64*1.06 || math.IsNaN(res.TotalUtility) {
		t.Fatalf("clearing broke under budget scaling: %+v", res)
	}
}

// TestClearMarketConvergedBound: over generated populations, a converged
// clearing's demand is at most (1+tol) times supply for every resource (at
// most half a bank when the chip has none), as ClearingResult.Converged
// documents. The bound allows overselling by up to tol, and the test
// reports how often converged clearings use that allowance.
func TestClearMarketConvergedBound(t *testing.T) {
	perf := generatedSurfaces(16)
	rng := rand.New(rand.NewSource(3))
	const tol, populations = 0.05, 400
	converged, oversold := 0, 0
	for pop := 0; pop < populations; pop++ {
		cs := make([]Customer, 2+rng.Intn(5))
		for i := range cs {
			cs[i] = Customer{
				Name:    fmt.Sprint("c", i),
				Perf:    latticeGrid(perf[rng.Intn(len(perf))]),
				Utility: Utility{K: 1 + rng.Intn(3), Budget: 50 + 250*rng.Float64()},
			}
		}
		supply := Supply{Slices: 8 + rng.Intn(120), Banks: rng.Intn(200)}
		res, err := ClearMarket(cs, supply, tol, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			continue
		}
		converged++
		// The relative slack covers rounding in the tatonnement's
		// demand/supply-1 <= tol comparison.
		within := func(demand float64, supply int) bool {
			if supply == 0 {
				return demand <= 0.5
			}
			return demand <= (1+tol)*float64(supply)*(1+1e-12)
		}
		if !within(res.SliceDemand, supply.Slices) || !within(res.BankDemand, supply.Banks) {
			t.Fatalf("population %d: converged at slices %.3f of %d, banks %.3f of %d, beyond (1+%v)·supply",
				pop, res.SliceDemand, supply.Slices, res.BankDemand, supply.Banks, tol)
		}
		if res.SliceDemand > float64(supply.Slices) || res.BankDemand > float64(supply.Banks) {
			oversold++
		}
	}
	t.Logf("%d of %d populations converged, %d of them oversold within tolerance", converged, populations, oversold)
	if converged == 0 {
		t.Fatal("no population converged")
	}
}
