// Package alloc is the one market core: every bid the repository prices —
// the sharded fleet simulator's epoch groups, the experiments churn
// scenario, and the sharingd daemon's requests
// (cmd/sharingd is the HTTP face) — goes through an Allocator. One goroutine
// driving it is the degenerate case of many goroutines driving it at
// thousands of bids per second:
//
//   - The hot read side is the lock-free market.SurfaceCache: a warm bid's
//     probes are one presence-bit load plus one value load each, no lock
//     anywhere. Cold probes singleflight on the cache's per-surface mutex,
//     so a thundering herd on a new benchmark costs one simulator run per
//     configuration.
//
//   - There is one search, econ.Lattice.Search, and it is PURE in its
//     explicit inputs: surface, objective, prices and start. It keeps no
//     state between calls and ascends from the start its caller passes.
//     The fleet passes each pricing group's epoch-synchronized previous
//     optimum; everyone else passes the fixed lattice start (econ.Config{},
//     the midpoint). The incremental search is not guaranteed to equal the
//     exhaustive argmax (the grid differentials measure where it does);
//     over memoized surface data its result is a pure function of those
//     inputs on ANY surface, which is the property concurrency actually
//     needs. Hidden warm starts (a surface's or a customer's last optimum)
//     were rejected deliberately: a racy hint would make results depend on
//     scheduling whenever a surface is not basin-shaped.
//
//   - Market clearing is batched: Arrive/Depart/Reconfigure submit ops to a
//     group-commit queue, and whichever goroutine finds the queue unled
//     becomes the epoch leader, drains everything pending, applies the ops
//     in submission order, and runs ONE tatonnement reprice for the whole
//     batch instead of N serialized ones. Followers block until their op's
//     epoch commits and share its ClearingResult.
//
// Determinism: a concurrent run's outcome is reflect.DeepEqual-identical to
// a sequential one-op-at-a-time serialization of the same committed op
// stream (see ReplaySequential and the race tests). The argument has two
// halves. Bids are pure functions of (surface, objective, prices, start) —
// a stateless search over memoized surface values — so concurrent bids equal
// sequential pricings of the same requests. Clearing is leader-serialized
// AND built from pure responses: ops commit in a total order (the op log),
// each epoch's single reprice runs ClearMarketWith over residents in arrival
// order from the standard starting prices, and every resident response is
// the same pure search from the fixed start — so a clearing's outcome
// depends only on the resident set it covers, never on how many ops were
// batched into the epoch that produced it (DESIGN.md §8).
package alloc

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sharing/internal/econ"
	"sharing/internal/market"
)

// WholeProgram marks a bid or resident running its whole benchmark.
const WholeProgram = market.WholeProgram

// ErrInvalid marks economics the core refuses at its boundary: a utility
// exponent below 1, a budget that is not a finite positive number, or a
// negative or non-finite price. Any of them would admit a customer whose
// utility has the wrong sign or no value into the search and the
// tatonnement.
var ErrInvalid = errors.New("alloc: invalid economics")

// Params configures an Allocator.
type Params struct {
	// Slices and CacheKB are the configuration lattice axes
	// (experiments.StdSlices / StdCaches for the paper's grid).
	Slices, CacheKB []int
	// Supply is the chip's rentable resources for market clearing. Zero
	// makes a pricing-only allocator (the fleet, the table drivers): bids
	// price as usual and membership ops are refused.
	Supply econ.Supply
	// Tol and MaxIter are the tatonnement parameters (econ.ClearMarketWith
	// defaults if 0).
	Tol     float64
	MaxIter int
	// Surfaces, when set, is a shared probe memo (e.g. one cache shared
	// with a fleet simulation) over the lattice Slices x CacheKB; prober
	// may then be nil. When nil, New builds a private cache over prober.
	Surfaces *market.SurfaceCache
}

// surfKey identifies one performance surface: a benchmark, or one phase.
type surfKey struct {
	bench string
	phase int
}

// Allocator serves allocation requests concurrently. All methods are safe
// for concurrent use; PriceBid and the read-side snapshot methods take no
// lock at all on the warm path.
type Allocator struct {
	p     Params
	cache *market.SurfaceCache

	// view is the immutable market snapshot published at each epoch commit;
	// readers load it lock-free.
	view atomic.Pointer[View]

	// Group-commit clearing state. qmu guards only the queue and the
	// leader flag; membership state (residents, order, seq) is owned by
	// the current epoch leader — leadership hand-off through qmu gives the
	// next leader a happens-before edge over all of it.
	qmu     sync.Mutex
	pending []*op
	leading bool

	residents map[string]*resident
	order     []*resident // arrival order: the clearing's bidder order
	seq       uint64
	epoch     uint64

	// logMu guards the committed-op journal (appends are per-op, reads are
	// the determinism verifier's).
	logMu sync.Mutex
	log   []OpRecord

	stats counters
}

// resident is one market participant; it implements econ.Bidder. Respond
// is only ever invoked by the epoch leader (inside the batch reprice), so
// its fields need no lock. last/warm track the resident's most recent
// optimum for the published view and the phase-change reconfiguration plan;
// they deliberately do NOT seed searches, which start from the fixed lattice
// start (purity, see the package comment).
type resident struct {
	a      *Allocator
	name   string
	bench  string
	phase  int
	util   econ.Utility
	last   econ.Config
	warm   bool
	joined uint64 // committing op's sequence number
}

// BidderName implements econ.Bidder.
func (r *resident) BidderName() string { return r.name }

// Respond implements econ.Bidder by a pure search at prices m.
func (r *resident) Respond(m econ.Market) (econ.Config, float64, float64, error) {
	res, err := r.a.search(r.key(), r.util, m, econ.Config{}, nil)
	if err != nil {
		return econ.Config{}, 0, 0, err
	}
	r.last, r.warm = res.Best, true
	cost := m.Cost(res.Best)
	vcores := 0.0
	if cost > 0 {
		vcores = r.util.Budget / cost
	}
	return res.Best, vcores, res.Score, nil
}

func (r *resident) key() surfKey { return surfKey{bench: r.bench, phase: r.phase} }

// New builds an Allocator over the given lattice and prober. With
// p.Surfaces set, prober may be nil: all probes go through the shared
// cache, which must be over the same lattice. A zero p.Supply builds a
// pricing-only allocator.
func New(p Params, prober market.Prober) (*Allocator, error) {
	lat, err := econ.NewLattice(p.Slices, p.CacheKB)
	if err != nil {
		return nil, fmt.Errorf("alloc: %w", err)
	}
	if p.Supply.Slices < 0 || p.Supply.Banks < 0 {
		return nil, fmt.Errorf("alloc: invalid supply %+v", p.Supply)
	}
	cache := p.Surfaces
	if cache == nil {
		cache, err = market.NewSurfaceCache(lat, prober)
		if err != nil {
			return nil, fmt.Errorf("alloc: %w", err)
		}
	} else if !cache.Lattice().Equal(lat) {
		return nil, fmt.Errorf("alloc: shared surface cache is over a different lattice than %v x %v", p.Slices, p.CacheKB)
	}
	a := &Allocator{
		p:         p,
		cache:     cache,
		residents: make(map[string]*resident),
	}
	a.view.Store(&View{Prices: econ.Market2()})
	return a, nil
}

// LatticeSize returns the probe cost of one exhaustive grid sweep.
func (a *Allocator) LatticeSize() int { return a.cache.Lattice().Size() }

// Cache returns the shared surface memo (for wiring several consumers onto
// one probe economy, and for the cache hit/miss telemetry).
func (a *Allocator) Cache() *market.SurfaceCache { return a.cache }

// search is the core's one search: the lattice search ascending from start
// (econ.Config{}, or any off-lattice start, resolves to the lattice
// midpoint), probing through the lock-free cache. A nil obj scores
// configurations by utility at prices m. The result is a deterministic
// function of (surface, obj, prices, start) — independent of scheduling and
// of every other request in flight.
//
//ssim:parallel
func (a *Allocator) search(k surfKey, u econ.Utility, m econ.Market, start econ.Config, obj econ.Objective) (econ.SearchResult, error) {
	if k.phase != WholeProgram && !a.cache.Phased() {
		return econ.SearchResult{}, fmt.Errorf("alloc: prober cannot measure phases (bench %s phase %d)", k.bench, k.phase)
	}
	if obj == nil {
		obj = func(perf float64, cfg econ.Config) float64 { return u.Value(m, perf, cfg) }
	}
	res, err := a.cache.Lattice().Search(obj, m, start, a.cache.Surface(k.bench, k.phase).Probe)
	if err != nil {
		return econ.SearchResult{}, err
	}
	// The cache lookups a search accounts for are its distinct
	// configurations.
	a.stats.probeLookups.Add(int64(res.Probes))
	a.stats.searches.Add(1)
	return res, nil
}

// PriceBid prices one stand-alone bid from the fixed lattice start: the
// utility-maximizing configuration for the benchmark at prices m. It is the
// serving hot path — entirely lock-free against a warm cache — and does not
// touch market membership.
//
//ssim:parallel
func (a *Allocator) PriceBid(bench string, u econ.Utility, m econ.Market) (market.BidResult, error) {
	return a.PriceBidAt(bench, u, m, econ.Config{}, nil)
}

// PriceBidAt prices one bid from an explicit start with an optional
// objective override (nil = utility at prices m; the fleet passes its
// utility-per-watt scheduling objective). The result is a pure function of
// (surface, objective, prices, start): the fleet relies on it to stay
// byte-identical across shard counts, pricing every group from its
// epoch-synchronized previous optimum.
//
//ssim:parallel
func (a *Allocator) PriceBidAt(bench string, u econ.Utility, m econ.Market, start econ.Config, obj econ.Objective) (market.BidResult, error) {
	if err := checkBid(u, m); err != nil {
		return market.BidResult{}, err
	}
	a.stats.inflight.Add(1)
	defer a.stats.inflight.Add(-1)
	res, err := a.search(surfKey{bench: bench, phase: WholeProgram}, u, m, start, obj)
	if err != nil {
		return market.BidResult{}, err
	}
	a.stats.bids.Add(1)
	cost := m.Cost(res.Best)
	br := market.BidResult{
		Config: res.Best, Perf: res.Perf, Utility: res.Score, Cost: cost,
		Probes: res.Probes,
	}
	if cost > 0 {
		br.VCores = u.Budget / cost
	}
	return br, nil
}

// checkUtility rejects a utility the economics cannot score: K < 1, or a
// budget that is not a finite positive number.
func checkUtility(u econ.Utility) error {
	if u.K < 1 {
		return fmt.Errorf("%w: utility exponent k = %d, want 1 or more", ErrInvalid, u.K)
	}
	if !(u.Budget > 0) || math.IsInf(u.Budget, 1) {
		return fmt.Errorf("%w: budget %v, want a finite value above 0", ErrInvalid, u.Budget)
	}
	return nil
}

// checkBid is checkUtility plus the prices: each cost must be finite and
// not negative.
func checkBid(u econ.Utility, m econ.Market) error {
	if err := checkUtility(u); err != nil {
		return err
	}
	for _, c := range [2]float64{m.SliceCost, m.BankCost} {
		if !(c >= 0) || math.IsInf(c, 1) {
			return fmt.Errorf("%w: market %q prices (%v, %v), want finite values of 0 or more", ErrInvalid, m.Name, m.SliceCost, m.BankCost)
		}
	}
	return nil
}

// Prices returns the current market price vector: the last clearing's
// prices, or the standard area prices (Market2) before any clearing.
// Lock-free.
func (a *Allocator) Prices() econ.Market {
	v := a.view.Load()
	if v.Result != nil {
		return v.Result.Prices
	}
	return v.Prices
}

// Snapshot returns the immutable market view published by the last epoch
// commit. Lock-free; callers must not mutate it.
func (a *Allocator) Snapshot() *View { return a.view.Load() }

// VM returns the named resident's published stats, if present. Lock-free.
func (a *Allocator) VM(name string) (VMStat, bool) {
	v := a.view.Load()
	i, ok := v.byName[name]
	if !ok {
		return VMStat{}, false
	}
	return v.VMs[i], true
}
