// Package fleet is the discrete-event datacenter simulator: it places a
// churning stream of VM bids onto N simulated sharing-architecture chips and
// accounts power and energy per Slice and L2 bank (the paper's §5.9
// datacenter argument at fleet scale; DISSECT-CF is the layered,
// energy-aware template, "Resource Allocation using Virtual Clusters" the
// placement/yield objective).
//
// Scale is the point, so the one epoch loop — price, place, apply energy,
// adjust prices — is built around three performance levers:
//
//   - Batched, warm-started pricing. Arrivals in an epoch are grouped by
//     (benchmark, utility) and each group is priced once, through one
//     alloc.Allocator, with the group's previous-epoch optimum as the
//     explicit start. Every search is the one stateless econ.Lattice.Search,
//     and it probes through the allocator's market.SurfaceCache, the one
//     dense memo over the lattice. After the first epoch a stationary market
//     prices bids with zero new probes — O(probes) per distinct surface, not
//     O(grid) per bid.
//
//   - Concurrent cold searches only. A group seen for the first time
//     searches from the lattice midpoint and, under a simulator-backed
//     prober, pays whole simulations; those groups run on their own
//     goroutines so distinct surfaces simulate at once. Warm groups cost
//     a few cache hits and run inline. Each search is a pure function of
//     (surface, objective, prices, start), so the schedule cannot move a
//     byte of the result.
//
//   - Wholesale idle fast-forward. A machine's energy integral is advanced
//     lazily, only when an event touches it (or once at the end of the run):
//     power is piecewise-constant between occupancy changes, so idle spans
//     cost one multiply instead of per-epoch work. Two thousand idle
//     machines cost nothing per epoch.
package fleet

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/market"
)

// Objective selects what the scheduler maximizes when pricing bids.
type Objective int

const (
	// ObjUtility maximizes utility at market prices (the paper's
	// utility-per-area economics under Market2).
	ObjUtility Objective = iota
	// ObjUtilityPerWatt maximizes utility per watt of VCore power — the
	// provider optimizing $/joule instead of $/area.
	ObjUtilityPerWatt
)

func (o Objective) String() string {
	if o == ObjUtilityPerWatt {
		return "utility/W"
	}
	return "utility"
}

// Placement selects the machine-choice policy.
type Placement int

const (
	// PlacePacked is best-fit: the fullest machine that still fits, so VMs
	// consolidate and empty machines stay parked (power-gated).
	PlacePacked Placement = iota
	// PlaceSpread is worst-fit: the emptiest machine, the load-balancing
	// baseline that keeps every chip powered.
	PlaceSpread
)

func (p Placement) String() string {
	if p == PlaceSpread {
		return "spread"
	}
	return "packed"
}

// Params configures a fleet run.
type Params struct {
	// Machines is the number of chips in the fleet (at most math.MaxInt32).
	Machines int
	// Shards is kept only because perfbench's fleet workload sets it to 1:
	// the fleet runs one loop, so 0 and 1 are accepted and any other value
	// is an error. Delete it together with that perfbench line.
	Shards int
	// ChipSlices and ChipBanks are each machine's rentable resources
	// (the evaluated chip, 64 Slices + 128 banks, if 0; at most 65535).
	ChipSlices, ChipBanks int
	// Epoch is the simulated seconds per pricing/placement batch (1.0 if 0;
	// negative, NaN or ±Inf is an error). It is also the departure
	// calendar's bucket width.
	Epoch float64
	// Events is the total number of VM lifecycle events (arrivals +
	// departures) to simulate; arrivals stop once half are spent (1000 if
	// 0; negative is an error).
	Events int
	// ArrivalsPerSec is the mean VM arrival rate (Poisson; 100/s if 0;
	// negative or NaN is an error, +Inf puts every arrival at one instant).
	ArrivalsPerSec float64
	// MeanLifetime is the mean VM lifetime in seconds (exponential; 60 if 0;
	// negative, NaN or ±Inf is an error).
	MeanLifetime float64
	// Seed derives the whole synthetic event stream (1 if 0).
	Seed uint64
	// Benches are the benchmark names bids draw from (round-robin with the
	// utility rotation; required, and no name may be empty).
	Benches []string
	// Lattice axes for the pricing searches (experiments.StdSlices/StdCaches
	// shaped defaults if nil).
	Slices, CacheKB []int
	// Market is the price vector bids are scored at (Market2 if zero).
	Market econ.Market
	// Objective is the pricing objective; Place the machine-choice policy.
	Objective Objective
	Place     Placement
	// AdaptivePrices, when set, ratchets the fleet's price vector each epoch
	// by utilization excess (an asymmetric price step of the fleet's own,
	// not econ.ClearMarket's exact clearing), so pricing stays
	// warm-start-driven under drifting prices.
	AdaptivePrices bool
}

// defaults validates p and fills in the defaults. Zero selects a field's
// default; any other value outside the field's range is an error.
func (p *Params) defaults() error {
	switch {
	case p.Machines <= 0:
		return fmt.Errorf("fleet: no machines")
	case len(p.Benches) == 0:
		return fmt.Errorf("fleet: no benchmarks")
	}
	if i := slices.Index(p.Benches, ""); i >= 0 {
		return fmt.Errorf("fleet: Benches[%d] is an empty name", i)
	}
	// A NaN or infinite epoch or lifetime, or a NaN rate, would stall the
	// epoch loop; an infinite rate is legal (every arrival at one instant).
	// A lease holds its machine ID in an int32 and its Slices and banks in
	// uint16s, so the fleet and its chips must fit those.
	switch {
	case p.Machines > math.MaxInt32:
		return fmt.Errorf("fleet: %d machines, want at most %d", p.Machines, math.MaxInt32)
	case p.Shards != 0 && p.Shards != 1:
		return fmt.Errorf("fleet: Shards is %d, want 0 or 1: the fleet runs one loop", p.Shards)
	case p.ChipSlices < 0 || p.ChipSlices > math.MaxUint16:
		return fmt.Errorf("fleet: ChipSlices is %d, want 0 (64) or up to %d", p.ChipSlices, math.MaxUint16)
	case p.ChipBanks < 0 || p.ChipBanks > math.MaxUint16:
		return fmt.Errorf("fleet: ChipBanks is %d, want 0 (128) or up to %d", p.ChipBanks, math.MaxUint16)
	case !(p.Epoch >= 0) || math.IsInf(p.Epoch, 1):
		return fmt.Errorf("fleet: Epoch is %v, want 0 (1 s) or a positive finite number", p.Epoch)
	case p.Events < 0:
		return fmt.Errorf("fleet: Events is %d, want 0 (1000) or more", p.Events)
	case !(p.ArrivalsPerSec >= 0):
		return fmt.Errorf("fleet: ArrivalsPerSec is %v, want 0 (100/s) or a positive number", p.ArrivalsPerSec)
	case !(p.MeanLifetime >= 0) || math.IsInf(p.MeanLifetime, 1):
		return fmt.Errorf("fleet: MeanLifetime is %v, want 0 (60 s) or a positive finite number", p.MeanLifetime)
	}
	if p.ChipSlices == 0 {
		p.ChipSlices = 64
	}
	if p.ChipBanks == 0 {
		p.ChipBanks = 128
	}
	if p.Epoch == 0 {
		p.Epoch = 1.0
	}
	if p.Events == 0 {
		p.Events = 1000
	}
	if p.ArrivalsPerSec == 0 {
		p.ArrivalsPerSec = 100
	}
	if p.MeanLifetime == 0 {
		p.MeanLifetime = 60
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if len(p.Slices) == 0 {
		p.Slices = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if len(p.CacheKB) == 0 {
		p.CacheKB = []int{0, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	}
	switch {
	case p.Market.SliceCost == 0 && p.Market.BankCost == 0:
		p.Market = econ.Market2()
	case p.Market.SliceCost == 0 || p.Market.BankCost == 0:
		// A half-set market is almost certainly a mistake: under
		// AdaptivePrices the zero component would multiply to zero every
		// step and ride the 0.001 clamp instead of erroring.
		return fmt.Errorf("fleet: market %+v sets only one of SliceCost/BankCost; set both or neither", p.Market)
	}
	return nil
}

// Fleet is one datacenter simulation. Build with New, run with Run.
type Fleet struct {
	p     Params
	alloc *alloc.Allocator
	mach  []machine
	power chipPower
	place *placer

	// Pricing tables indexed by groupKey: warm holds each group's last
	// optimum (committed after each epoch's pricing, in group order), slot
	// its index in the epoch's groups (-1: none).
	names []string // distinct bench names, sorted
	rank  []int    // Params.Benches position -> index in names
	warm  []econ.Config
	slot  []int

	events *eventStream
	groups []pricingGroup // groupBids' batch, reused across epochs
	prices econ.Market

	rep Report
}

// groupKey identifies an arrival's pricing group: all bids in an epoch that
// share a surface and utility are priced once. Ascending keys are the
// deterministic group order, bench name then K.
func (f *Fleet) groupKey(ev *event) int {
	return f.rank[ev.bench()]*utilityExps + ev.k() - 1
}

// New builds a fleet over the given prober (simulator-backed or synthetic).
func New(p Params, prober market.Prober) (*Fleet, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	// A pricing-only allocator: no supply, so no market of its own to clear.
	a, err := alloc.New(alloc.Params{Slices: p.Slices, CacheKB: p.CacheKB}, prober)
	if err != nil {
		return nil, err
	}
	names := slices.Clone(p.Benches)
	slices.Sort(names)
	names = slices.Compact(names)
	rank := make([]int, len(p.Benches))
	for i, b := range p.Benches {
		rank[i], _ = slices.BinarySearch(names, b)
	}
	f := &Fleet{
		p:      p,
		alloc:  a,
		mach:   make([]machine, p.Machines),
		power:  newChipPower(p.ChipSlices, p.ChipBanks),
		names:  names,
		rank:   rank,
		warm:   make([]econ.Config, len(names)*utilityExps),
		slot:   make([]int, len(names)*utilityExps),
		prices: p.Market,
	}
	f.place = newPlacer(p.Machines, p.ChipSlices, p.ChipBanks, p.Place)
	f.events = newEventStream(p.Seed, p.ArrivalsPerSec, p.MeanLifetime, p.Epoch, p.Events, len(p.Benches))
	return f, nil
}

// objective returns the pricing objective for utility u at prices m, or nil
// for the default utility objective.
func (f *Fleet) objective(u econ.Utility, m econ.Market) econ.Objective {
	if f.p.Objective != ObjUtilityPerWatt {
		return nil
	}
	return func(perf float64, cfg econ.Config) float64 {
		w := vcorePowerW(cfg, perf)
		if w <= 0 {
			return 0
		}
		return u.Value(m, perf, cfg) / w
	}
}

// Run executes the simulation to completion and returns the report. A Fleet
// is single-use.
func (f *Fleet) Run() (*Report, error) {
	epoch := 0
	for !f.events.done() {
		// Jump straight to the epoch holding the next event: an empty epoch
		// would take nothing and count nothing, so skipping it is exact,
		// and Run costs O(events), not O(simulated time / Epoch).
		due, _ := f.events.nextDue()
		var err error
		if epoch, err = f.epochAfter(epoch, due); err != nil {
			return nil, err
		}
		evs := f.events.take(f.epochEnd(epoch))
		epoch++
		groups := f.groupBids(evs)
		if err := f.priceGroups(groups); err != nil {
			return nil, err
		}
		f.placeEvents(evs, groups)
		if f.p.AdaptivePrices {
			f.adjustPrices()
		}
		f.rep.Epochs++
	}
	f.finalize()
	return &f.rep, nil
}

// epochEnd is where epoch e's batch stops: events strictly before it.
func (f *Fleet) epochEnd(e int) float64 { return float64(e)*f.p.Epoch + f.p.Epoch }

// maxEpoch bounds the epoch index so float64(e) stays exact and the event
// calendar's bucket index int(t/Epoch) cannot overflow.
const maxEpoch = 1 << 53

// epochAfter returns the first epoch from e on whose end exceeds t: the first
// one whose batch holds an event due at t. epochEnd is monotone in e, so a
// guess from t/Epoch is corrected by a step or two either way.
func (f *Fleet) epochAfter(e int, t float64) (int, error) {
	if f.epochEnd(e) > t {
		return e, nil
	}
	q := t / f.p.Epoch
	if !(q < maxEpoch) {
		return 0, fmt.Errorf("fleet: an event at t=%v lies beyond %d epochs of %v s", t, maxEpoch, f.p.Epoch)
	}
	g := max(e, int(q)-1)
	for g > e && f.epochEnd(g-1) > t {
		g--
	}
	for f.epochEnd(g) <= t {
		g++
	}
	return g, nil
}

// groupBids collects the epoch's arrival bids into pricing groups in
// ascending key order (bench name, then K) and records each group's index
// in f.slot.
func (f *Fleet) groupBids(evs []event) []pricingGroup {
	for key := range f.slot {
		f.slot[key] = -1
	}
	for i := range evs {
		if evs[i].arrive() {
			f.slot[f.groupKey(&evs[i])] = 0 // present; indexed below
		}
	}
	groups := f.groups[:0]
	for key, s := range f.slot {
		if s == 0 {
			f.slot[key] = len(groups)
			groups = append(groups, pricingGroup{key: key})
		}
	}
	f.groups = groups
	return groups
}

// pricingGroup is one (bench, utility) group priced once per epoch.
type pricingGroup struct {
	key int // groupKey
	bid market.BidResult
	err error
}

// priceGroups prices every group and commits the warm starts in group
// order. A cold group (no previous optimum: its search starts at the
// lattice midpoint and, behind a simulator, runs whole simulations) prices
// on its own goroutine; a warm one, a few memo hits, prices inline. Each
// search is a pure function of (surface, objective, prices, start), so the
// outcome does not depend on the schedule, and the shared SurfaceCache
// collapses duplicate probes. On failure the lowest group's error is
// returned, whichever finished first.
func (f *Fleet) priceGroups(groups []pricingGroup) error {
	var wg sync.WaitGroup
	for i := range groups {
		g := &groups[i]
		if f.warm[g.key] != (econ.Config{}) {
			f.priceGroup(g)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.priceGroup(g)
		}()
	}
	wg.Wait()
	for i := range groups {
		if err := groups[i].err; err != nil {
			return err
		}
	}
	for i := range groups {
		f.warm[groups[i].key] = groups[i].bid.Config
		f.rep.Searches++
	}
	return nil
}

// priceGroup prices one group from its warm start at the epoch's prices. It
// writes only g, so concurrent calls on distinct groups do not race.
func (f *Fleet) priceGroup(g *pricingGroup) {
	bench := f.names[g.key/utilityExps]
	u := econ.Utility{K: g.key%utilityExps + 1, Budget: econ.DefaultBudget}
	start := f.warm[g.key] // zero Config on cold start: lattice midpoint
	g.bid, g.err = f.alloc.PriceBidAt(bench, u, f.prices, start, f.objective(u, f.prices))
}

// placeEvents places the epoch's events in (time, seq) order against global
// machine capacity and applies each one's energy change to its machine at
// once. Every machine therefore sees its admissions and evictions in
// (time, seq) order, and admit and evict touch only that machine, so the
// energy integrals do not depend on anything else. Only a placed arrival
// schedules a departure, and the departure carries its lease back.
//
//ssim:hotpath
func (f *Fleet) placeEvents(evs []event, groups []pricingGroup) {
	for i := range evs {
		ev := &evs[i]
		if !ev.arrive() {
			f.place.free(ev.lease)
			f.mach[ev.lease.machine].evict(ev.t, ev.lease, &f.power)
			f.rep.Departed++
			continue
		}
		g := &groups[f.slot[f.groupKey(ev)]]
		cfg := g.bid.Config
		m := f.place.pick(cfg.Slices, cfg.Banks())
		if m < 0 {
			f.rep.Rejected++
			continue
		}
		l := newLease(m, cfg.Slices, cfg.Banks(), g.bid.Perf)
		f.place.alloc(l)
		f.mach[m].admit(ev.t, l, &f.power)
		f.events.scheduleDeparture(ev.depart(), l)
		f.rep.Placed++
		f.rep.UtilityAdmitted += g.bid.Utility
	}
}

// adjustPrices ratchets the fleet price vector by utilization excess over a
// target band: an asymmetric step at fleet granularity, independent of
// econ.ClearMarket. It runs after placement, from deterministic aggregate
// state.
func (f *Fleet) adjustPrices() {
	totSlices := float64(f.p.Machines * f.p.ChipSlices)
	totBanks := float64(f.p.Machines * f.p.ChipBanks)
	const target = 0.75 // demand above this utilization raises prices
	exS := float64(f.place.usedSlices)/(totSlices*target) - 1
	exB := float64(f.place.usedBanks)/(totBanks*target) - 1
	const step = 0.1
	adjust := func(price, excess float64) float64 {
		if excess > 0 {
			price *= 1 + step*excess
		} else {
			price *= 1 + 0.25*step*excess
		}
		if price < 0.001 {
			price = 0.001
		}
		return price
	}
	f.prices.SliceCost = adjust(f.prices.SliceCost, exS)
	f.prices.BankCost = adjust(f.prices.BankCost, exB)
	f.rep.FinalPrices = f.prices
}

// finalize fast-forwards every machine's energy integral to the stream end
// and sums the totals in machine-ID order.
func (f *Fleet) finalize() {
	end := f.events.end()
	f.rep.MachineEnergy = make([]float64, len(f.mach))
	for mi := range f.mach {
		m := &f.mach[mi]
		m.accrue(end, &f.power)
		f.rep.Energy.add(&m.energy)
		f.rep.MachineEnergy[mi] = m.energy.TotalJ()
		if m.everUsed {
			f.rep.MachinesUsed++
		}
	}
	f.rep.Machines = f.p.Machines
	f.rep.Events = f.rep.Placed + f.rep.Rejected + f.rep.Departed
	f.rep.SimSeconds = end
	cache := f.alloc.Cache()
	f.rep.UniqueProbes = cache.Unique()
	f.rep.Surfaces = cache.NumSurfaces()
	f.rep.GridProbes = f.rep.Surfaces * len(f.p.Slices) * len(f.p.CacheKB)
	f.rep.NaiveGridProbes = (f.rep.Placed + f.rep.Rejected) * len(f.p.Slices) * len(f.p.CacheKB)
	f.rep.FinalPrices = f.prices
}
