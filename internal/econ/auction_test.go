package econ

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
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

// oversold reports whether demand exceeds supply beyond the rounding of the
// demand sums.
func oversold(demand float64, supply int) bool {
	return demand > float64(supply)*(1+1e-12)
}

func TestClearMarketBalancesDemand(t *testing.T) {
	supply := Supply{Slices: 64, Banks: 64}
	res, err := ClearMarket(auctionCustomers(), supply)
	if err != nil {
		t.Fatal(err)
	}
	if oversold(res.SliceDemand, supply.Slices) || oversold(res.BankDemand, supply.Banks) {
		t.Fatalf("oversold at clearing: slices %.3f of %d, banks %.3f of %d", res.SliceDemand, supply.Slices, res.BankDemand, supply.Banks)
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

// TestClearMarketConverged: a population whose choices stay put around the
// root clears both resources exactly and reports Converged; a lone customer
// on a generated surface has a Slice-to-bank ratio that jumps over the
// supply's, so its clearing gaps: it reports not converged, its binding
// resource sells out and the demand it reports shows the other one idle.
func TestClearMarketConverged(t *testing.T) {
	// Each surface makes one configuration overwhelmingly best at every
	// ratio in the bracket: (1 Slice, 0 KB) and (1 Slice, 512 KB).
	only := func(want Config) *Surface {
		return latticeGrid(func(c Config) float64 {
			if c == want {
				return 1e20
			}
			return 1
		})
	}
	supply := Supply{Slices: 64, Banks: 128}
	res, err := ClearMarket([]Customer{
		{Name: "lean", Perf: only(Config{Slices: 1}), Utility: Utility{K: 1, Budget: 100}},
		{Name: "cachey", Perf: only(Config{Slices: 1, CacheKB: 512}), Utility: Utility{K: 1, Budget: 100}},
	}, supply)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(d float64, s int) bool { return math.Abs(d-float64(s)) <= float64(s)*1e-12 }
	if !res.Converged || !exact(res.SliceDemand, supply.Slices) || !exact(res.BankDemand, supply.Banks) {
		t.Fatalf("exact clearing: converged %v, slices %v of %d, banks %v of %d",
			res.Converged, res.SliceDemand, supply.Slices, res.BankDemand, supply.Banks)
	}

	// No configuration holds 127 banks per 64 Slices.
	supply = Supply{Slices: 64, Banks: 127}
	lone := []Customer{{Name: "lone", Perf: latticeGrid(generatedSurfaces(1)[0]), Utility: Utility2()}}
	gap, err := ClearMarket(lone, supply)
	if err != nil {
		t.Fatal(err)
	}
	sUse, bUse := gap.SliceDemand/float64(supply.Slices), gap.BankDemand/float64(supply.Banks)
	if gap.Converged || oversold(gap.SliceDemand, supply.Slices) || oversold(gap.BankDemand, supply.Banks) ||
		math.Max(sUse, bUse) < 1-1e-12 || math.Min(sUse, bUse) > 1-1e-6 {
		t.Fatalf("one-customer clearing: converged %v, Slices used %v, banks used %v; want a gap with one resource sold out",
			gap.Converged, sUse, bUse)
	}
	if gap.Iterations < 3 {
		t.Fatalf("gap found in %d demand evaluations: the bisection did not run", gap.Iterations)
	}
}

func TestClearMarketScarcityRaisesPrices(t *testing.T) {
	// Halving the supply must raise at least one clearing price.
	rich, err := ClearMarket(auctionCustomers(), Supply{Slices: 256, Banks: 256})
	if err != nil {
		t.Fatal(err)
	}
	poor, err := ClearMarket(auctionCustomers(), Supply{Slices: 32, Banks: 32})
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

// TestClearMarketNoBanks: with no banks for sale the market clears at the
// top of the ratio bracket, where every choice is cache-free; the Slices
// sell out exactly. A customer whose every cache-free configuration is
// worthless still wants banks there, and the clearing refuses it.
func TestClearMarketNoBanks(t *testing.T) {
	supply := Supply{Slices: 64}
	res, err := ClearMarket(auctionCustomers(), supply)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.BankDemand != 0 || oversold(res.SliceDemand, supply.Slices) || res.SliceDemand < 64*(1-1e-12) {
		t.Fatalf("no-bank clearing: %+v", res)
	}
	for _, a := range res.Allocations {
		if a.Config.Banks() != 0 {
			t.Fatalf("%s holds %v with no banks for sale", a.Customer, a.Config)
		}
	}
	cacheOnly := Customer{Name: "cache-only", Utility: Utility1(), Perf: latticeGrid(func(c Config) float64 {
		return float64(c.CacheKB)
	})}
	if res, err := ClearMarket(append(auctionCustomers(), cacheOnly), supply); err == nil {
		t.Fatalf("a customer that needs banks cleared over a bankless supply: %+v", res)
	}
}

func TestClearMarketErrors(t *testing.T) {
	if _, err := ClearMarket(nil, Supply{Slices: 1}); err == nil {
		t.Fatal("no customers accepted")
	}
	for _, s := range []Supply{{Slices: 0}, {Slices: -1, Banks: 4}, {Slices: 4, Banks: -1}} {
		if _, err := ClearMarket(auctionCustomers(), s); err == nil {
			t.Fatalf("supply %+v accepted", s)
		}
	}
	bad := []func(*Customer){
		func(c *Customer) { c.Utility.K = 0 },
		func(c *Customer) { c.Utility.K = -2 },
		func(c *Customer) { c.Utility.Budget = 0 },
		func(c *Customer) { c.Utility.Budget = -100 },
		func(c *Customer) { c.Utility.Budget = math.NaN() },
		func(c *Customer) { c.Utility.Budget = math.Inf(1) },
		func(c *Customer) { c.Perf = nil },
		func(c *Customer) { c.Perf = &Surface{Lattice: c.Perf.Lattice} },
	}
	for i, spoil := range bad {
		cs := auctionCustomers()
		spoil(&cs[1])
		if res, err := ClearMarket(cs, Supply{Slices: 64, Banks: 64}); err == nil {
			t.Fatalf("spoiled customer %d (%+v) accepted: %+v", i, cs[1].Utility, res)
		}
	}
	// Budgets so large that the prices would overflow are refused.
	cs := auctionCustomers()
	for i := range cs {
		cs[i].Utility.Budget = math.MaxFloat64
	}
	if res, err := ClearMarket(cs, Supply{Slices: 1, Banks: 1}); err == nil {
		t.Fatalf("overflowing budgets accepted: %+v", res.Prices)
	}
}

// clearingPopulation is one generated market.
type clearingPopulation struct {
	name      string
	customers []Customer
	supply    Supply
}

// clearingPopulations returns 400 populations of 4-50 customers on the
// generated surfaces, 100 that also draw from the plateau surfaces of
// argmax_test.go, and 50 over a supply with no banks. K is 1-3, budgets
// are 50, 100 or 200, and supplies are 64/128, 32/256, 128/64 and 64/512
// Slices/banks. Customers drawing the same surface share its pointer.
func clearingPopulations() []clearingPopulation {
	var gen, plateau []*Surface
	for _, perf := range generatedSurfaces(16) {
		gen = append(gen, latticeGrid(perf))
	}
	for _, perf := range plateauSurfaces() {
		plateau = append(plateau, latticeGrid(perf))
	}
	supplies := []Supply{{64, 128}, {32, 256}, {128, 64}, {64, 512}}
	budgets := []float64{50, 100, 200}
	rng := rand.New(rand.NewSource(30))
	var out []clearingPopulation
	add := func(name string, surfaces []*Surface, supply Supply) {
		cs := make([]Customer, 4+rng.Intn(47))
		for i := range cs {
			cs[i] = Customer{
				Name:    fmt.Sprint("c", i),
				Perf:    surfaces[rng.Intn(len(surfaces))],
				Utility: Utility{K: 1 + rng.Intn(3), Budget: budgets[rng.Intn(len(budgets))]},
			}
		}
		out = append(out, clearingPopulation{name: fmt.Sprint(name, " ", len(out)), customers: cs, supply: supply})
	}
	for i := 0; i < 400; i++ {
		add("generated", gen, supplies[rng.Intn(len(supplies))])
	}
	mixed := append(append([]*Surface(nil), gen...), plateau...)
	for i := 0; i < 100; i++ {
		add("plateau", mixed, supplies[rng.Intn(len(supplies))])
	}
	for i := 0; i < 50; i++ {
		add("no banks", mixed, Supply{Slices: 64})
	}
	return out
}

// TestClearMarketNeverOversells: on every generated population the clearing
// sells nothing it does not have (demand at most supply on both resources,
// up to the rounding of the demand sums) and sells out its binding resource.
// It reports how often the clearing is exact, how much of the slacker
// resource a gap leaves in use, and the demand evaluations it took.
func TestClearMarketNeverOversells(t *testing.T) {
	var gaps, evals, n int
	var slackUse []float64
	for _, pop := range clearingPopulations() {
		res, err := ClearMarket(pop.customers, pop.supply)
		if err != nil {
			t.Fatalf("%s: %v", pop.name, err)
		}
		s := pop.supply
		if oversold(res.SliceDemand, s.Slices) || oversold(res.BankDemand, s.Banks) {
			t.Fatalf("%s: oversold: slices %v of %d, banks %v of %d", pop.name, res.SliceDemand, s.Slices, res.BankDemand, s.Banks)
		}
		sUse := res.SliceDemand / float64(s.Slices)
		if s.Banks == 0 {
			if res.BankDemand != 0 || sUse < 1-1e-12 {
				t.Fatalf("%s: no banks for sale, yet slices %v of %d and banks %v", pop.name, res.SliceDemand, s.Slices, res.BankDemand)
			}
			continue
		}
		bUse := res.BankDemand / float64(s.Banks)
		if math.Max(sUse, bUse) < 1-1e-12 {
			t.Fatalf("%s: neither resource sells out: Slices used %v, banks %v", pop.name, sUse, bUse)
		}
		if res.Converged && math.Min(sUse, bUse) < 1-1e-9 {
			t.Fatalf("%s: converged, but Slices used %v and banks %v", pop.name, sUse, bUse)
		}
		if !res.Converged {
			gaps++
		}
		slackUse = append(slackUse, math.Min(sUse, bUse))
		evals += res.Iterations
		n++
	}
	sort.Float64s(slackUse)
	t.Logf("%d populations with banks: %d gap, slacker resource use median %.3f, p10 %.3f; %.1f demand evaluations on average",
		n, gaps, slackUse[len(slackUse)/2], slackUse[len(slackUse)/10], float64(evals)/float64(n))
}

// TestClearMarketRootMatchesScan: on every generated population with banks,
// a scan of r over a log grid spanning the bracket finds h(r) = Slice
// demand / bank demand non-decreasing, below the supply ratio T at every
// point under the bisection's upper side and at or above it from there on,
// and every group's bank demand per unit of budget, b/(s + r·b), never
// rising with r: the own-price monotonicity the bisection rests on.
func TestClearMarketRootMatchesScan(t *testing.T) {
	const points = 401
	for _, pop := range clearingPopulations() {
		if pop.supply.Banks == 0 {
			continue
		}
		cl, err := newClearing(pop.customers)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := cl.root(pop.supply)
		if err != nil {
			t.Fatal(err)
		}
		ss, sb := float64(pop.supply.Slices), float64(pop.supply.Banks)
		above := func(d side) bool { return d.s*sb >= d.b*ss }
		// The bisection ends with adjacent floats lo < hi, and the clearing
		// keeps one of them; the first ratio h reaches T at is hi.
		hi := d.r
		if !above(d) {
			hi = math.Nextafter(d.r, math.Inf(1))
		}
		var prev side
		for i := 0; i < points; i++ {
			r := math.Exp2(-40 + 80*float64(i)/(points-1))
			cur := cl.eval(r)
			if above(cur) != (r >= hi) {
				t.Fatalf("%s: at r = %v h is %v, T is %v, but the root's upper side is %v", pop.name, r, cur.s/cur.b, ss/sb, hi)
			}
			if i > 0 {
				if cur.s*prev.b < prev.s*cur.b*(1-1e-12) {
					t.Fatalf("%s: h falls from %v to %v as r rises to %v", pop.name, prev.s/prev.b, cur.s/cur.b, r)
				}
				for g := range cur.choice {
					bank := func(d side) float64 {
						c := d.choice[g]
						return float64(c.Banks()) / (float64(c.Slices) + d.r*float64(c.Banks()))
					}
					if bank(cur) > bank(prev)*(1+1e-12) {
						t.Fatalf("%s: group %d's bank demand rises from %v at %v to %v at %v",
							pop.name, g, prev.choice[g], prev.r, cur.choice[g], r)
					}
				}
			}
			prev = cur
		}
	}
}

// TestClearMarketGroupingInvariant: customers sharing a surface pointer
// share one argmax per ratio, and giving every customer a private copy of
// its surface must not change a bit of the result.
func TestClearMarketGroupingInvariant(t *testing.T) {
	for _, pop := range clearingPopulations() {
		want, err := ClearMarket(pop.customers, pop.supply)
		if err != nil {
			t.Fatal(err)
		}
		cloned := append([]Customer(nil), pop.customers...)
		for i := range cloned {
			p := *cloned[i].Perf
			p.Values = append([]float64(nil), p.Values...)
			cloned[i].Perf = &p
		}
		got, err := ClearMarket(cloned, pop.supply)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: private surfaces changed the clearing:\n got %+v\nwant %+v", pop.name, got, want)
		}
	}
}

// TestClearMarketBudgetInvariant: a customer's choice at a ratio does not
// involve its budget, so scaling every budget by one factor must leave
// every configuration unchanged, exact ties included (the plateau surfaces
// put them at the optimum), and only the prices scale. The clearing ratio
// r stays bit-identical wherever the market gaps or clears at the bracket's
// edge, because there the root sits where a choice switches. In an exact
// clearing the root is where the budget-weighted demand sums cross, and
// their rounding moves with the budgets, so r may move in its last bits.
// It runs on one-customer markets over every generated and plateau surface
// and on every tenth of the populations that draw from both, with 200
// factors in [e^-4, e^4].
func TestClearMarketBudgetInvariant(t *testing.T) {
	var pops []clearingPopulation
	for gi, g := range propertyGrids() {
		for k := 1; k <= 3; k++ {
			for _, s := range []Supply{{64, 128}, {128, 64}, {64, 0}} {
				pops = append(pops, clearingPopulation{
					name:      fmt.Sprintf("grid %d k=%d supply %+v", gi, k, s),
					customers: []Customer{{Name: "c", Perf: g, Utility: Utility{K: k, Budget: DefaultBudget}}},
					supply:    s,
				})
			}
		}
	}
	// Every tenth of the plateau and no-bank populations.
	for i, pop := range clearingPopulations()[400:] {
		if i%10 == 0 {
			pops = append(pops, pop)
		}
	}
	clear := func(cs []Customer, supply Supply) (float64, *ClearingResult) {
		cl, err := newClearing(cs)
		if err != nil {
			t.Fatal(err)
		}
		d, converged, err := cl.root(supply)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.result(supply, d, converged)
		if err != nil {
			t.Fatal(err)
		}
		return d.r, res
	}
	rng := rand.New(rand.NewSource(31))
	factors := make([]float64, 200)
	for i := range factors {
		factors[i] = math.Exp(-4 + 8*rng.Float64())
	}
	exact, moved := 0, 0
	for _, pop := range pops {
		wantR, want := clear(pop.customers, pop.supply)
		if want.Converged {
			exact++
		}
		for _, f := range factors {
			cs := append([]Customer(nil), pop.customers...)
			for i := range cs {
				cs[i].Utility.Budget *= f
			}
			r, got := clear(cs, pop.supply)
			if r != wantR {
				if !want.Converged || math.Abs(r-wantR) > wantR*1e-12 {
					t.Fatalf("%s: budgets times %v move the ratio from %v to %v (converged %v)", pop.name, f, wantR, r, want.Converged)
				}
				moved++
			}
			for i := range got.Allocations {
				if got.Allocations[i].Config != want.Allocations[i].Config {
					t.Fatalf("%s: budgets times %v move %s from %v to %v", pop.name, f, cs[i].Name,
						want.Allocations[i].Config, got.Allocations[i].Config)
				}
			}
		}
	}
	t.Logf("%d markets x %d factors: %d exact clearings; r moved in its last bits in %d of their %d scalings",
		len(pops), len(factors), exact, moved, exact*len(factors))
}

// FuzzClearMarket decodes a supply, up to four surfaces on a 3 x 3 lattice
// and a population, and clears it. The clearing must not panic; it must
// refuse K < 1 and a zero budget; and an accepted clearing must have
// finite positive prices, oversell nothing and list the customers in input
// order.
//
// Decoding: byte 0 is the Slice supply, byte 1 the bank supply, byte 2
// the surface count (1-4); each surface is then nine bytes, a value of
// byte/16 at each lattice point; every customer is then three bytes: its
// surface, K (mod 4, so 0 is invalid) and its budget (0 is invalid).
func FuzzClearMarket(f *testing.F) {
	f.Add([]byte{64, 128, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 100, 1, 2, 50})
	f.Add([]byte{8, 0, 1, 16, 16, 16, 16, 16, 16, 16, 16, 16, 0, 3, 200, 0, 2, 1})
	f.Add([]byte{1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{255, 3, 3, 0, 255, 1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 48, 64, 80, 96, 112, 128, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 9, 1, 2, 9, 2, 3, 9})
	lat, err := NewLattice([]int{1, 2, 4}, []int{0, 64, 256})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		supply := Supply{Slices: int(in[0]), Banks: int(in[1])}
		nsurf := 1 + int(in[2])%4
		in = in[3:]
		var surfs []*Surface
		for ; len(surfs) < nsurf && len(in) >= lat.Size(); in = in[lat.Size():] {
			s := NewSurface(lat)
			for x := range s.Values {
				s.Values[x] = float64(in[x]) / 16
			}
			surfs = append(surfs, s)
		}
		if len(surfs) == 0 {
			return
		}
		var cs []Customer
		valid := true
		for ; len(in) >= 3 && len(cs) < 64; in = in[3:] {
			u := Utility{K: int(in[1]) % 4, Budget: float64(in[2])}
			valid = valid && u.K >= 1 && u.Budget > 0
			cs = append(cs, Customer{Name: fmt.Sprint("c", len(cs)), Perf: surfs[int(in[0])%len(surfs)], Utility: u})
		}
		res, err := ClearMarket(cs, supply)
		if err != nil {
			if valid && len(cs) > 0 && supply.Slices > 0 && supply.Banks > 0 {
				t.Fatalf("valid population refused: %v", err)
			}
			return
		}
		if !valid || len(cs) == 0 || supply.Slices == 0 {
			t.Fatalf("invalid population or supply %+v accepted: %+v", supply, cs)
		}
		p := res.Prices
		if !(p.SliceCost > 0) || !(p.BankCost > 0) || math.IsInf(p.SliceCost, 1) || math.IsInf(p.BankCost, 1) {
			t.Fatalf("prices %+v", p)
		}
		if oversold(res.SliceDemand, supply.Slices) || oversold(res.BankDemand, supply.Banks) {
			t.Fatalf("oversold: slices %v of %d, banks %v of %d", res.SliceDemand, supply.Slices, res.BankDemand, supply.Banks)
		}
		if len(res.Allocations) != len(cs) {
			t.Fatalf("%d allocations for %d customers", len(res.Allocations), len(cs))
		}
		for i, a := range res.Allocations {
			if a.Customer != cs[i].Name || !(a.VCores > 0) {
				t.Fatalf("allocation %d is %+v, customer %s", i, a, cs[i].Name)
			}
		}
	})
}
