package econ

import "fmt"

// Incremental optimum search (the allocation core's one search). The batch
// drivers find each customer's utility-maximizing VCore by sweeping the full
// (Slices x CacheKB) measurement grid — fine for regenerating figures,
// hopeless for pricing a stream of bids. This file searches the utility
// surface U(c,s) directly: starting from a warm configuration (the
// customer's previous optimum, or a neighbor's), it greedily ascends the
// lattice, probing the simulator only for configurations the search actually
// visits. The surfaces of §5.7 (Fig. 14) are unimodal in practice — utility
// rises toward a single interior peak and falls off with over-provisioning —
// so the ascent converges in a handful of probes. The search is not exact
// by construction: on a surface with a basin neither ascent starts in it can
// stop short of the grid optimum. Its exactness on the paper's surfaces is
// measured by the differential tests against the full grid (see DESIGN.md,
// "Incremental optimum search").

// ProbeFn returns the measured performance P(c) of one configuration. A
// probe may be expensive (a simulator run) or cheap (a results-cache hit);
// the Optimizer memoizes probed values so each configuration is requested at
// most once per Optimizer lifetime.
type ProbeFn func(Config) (float64, error)

// Objective scores a configuration given its measured performance. The two
// objectives in use are Utility.Value at the current market prices (bid
// pricing) and Metric (perf^k/area, phase scheduling).
type Objective func(perf float64, cfg Config) float64

// Optimizer searches utility/metric surfaces over a fixed configuration
// lattice, memoizing every probed performance value. It is NOT safe for
// concurrent use; the allocation core (internal/alloc) pools one per
// in-flight search.
type Optimizer struct {
	slices []int // ascending Slice axis
	caches []int // ascending CacheKB axis

	// The probe memo is dense over the lattice: vals[i*len(caches)+j] holds
	// P(slices[i], caches[j]) when bit i*len(caches)+j of have is set.
	vals   []float64
	have   []uint64
	probes int // cumulative memo misses (actual ProbeFn calls)
}

// NewOptimizer builds an Optimizer over the given axes. The axes must be
// strictly ascending and non-empty (the standard lattice is
// experiments.StdSlices x experiments.StdCaches).
func NewOptimizer(slices, caches []int) (*Optimizer, error) {
	if len(slices) == 0 || len(caches) == 0 {
		return nil, fmt.Errorf("econ: empty optimizer axis")
	}
	for i := 1; i < len(slices); i++ {
		if slices[i] <= slices[i-1] {
			return nil, fmt.Errorf("econ: slice axis not ascending: %v", slices)
		}
	}
	for i := 1; i < len(caches); i++ {
		if caches[i] <= caches[i-1] {
			return nil, fmt.Errorf("econ: cache axis not ascending: %v", caches)
		}
	}
	n := len(slices) * len(caches)
	o := &Optimizer{
		slices: append([]int(nil), slices...),
		caches: append([]int(nil), caches...),
		vals:   make([]float64, n),
		have:   make([]uint64, (n+63)/64),
	}
	return o, nil
}

// LatticeSize returns the number of configurations on the lattice — the
// probe cost of one exhaustive sweep.
func (o *Optimizer) LatticeSize() int { return len(o.slices) * len(o.caches) }

// Probes returns the cumulative number of ProbeFn calls issued (memo
// misses) over the Optimizer's lifetime.
func (o *Optimizer) Probes() int { return o.probes }

// Reset clears the probe memo and counters, keeping the axes.
// It exists for goroutine-local reuse: the concurrent allocation library
// (internal/alloc) pools Optimizers and resets one per search, so every
// search starts from an empty memo — its probe count is then a pure
// function of (surface, prices, start), never of which pooled instance
// served the previous search — while the actual measurement memoization
// lives in the shared, concurrency-safe market.SurfaceCache.
func (o *Optimizer) Reset() {
	clear(o.have)
	o.probes = 0
}

// SearchResult reports one incremental optimum search.
type SearchResult struct {
	// Best is the better of the two ascents' optima, with ties resolved by
	// PreferOnTie. The grid differentials check that it equals what the
	// exhaustive sweep (Utility.Best / BestByMetric over the full grid)
	// returns; on a surface with a basin neither ascent reaches, it does
	// not.
	Best Config
	// Perf is the measured performance at Best; Score is its objective value.
	Perf, Score float64
	// Probes counts the ProbeFn calls this search issued (memo hits are
	// free): at most LatticeSize(), and at most ~8 for a warm-started
	// search over a memoized region.
	Probes int
}

// perf returns the memoized or freshly probed performance of cfg, lattice
// point (i, j).
func (o *Optimizer) perf(i, j int, cfg Config, probe ProbeFn) (float64, error) {
	x := i*len(o.caches) + j
	bit := uint64(1) << (x % 64)
	if o.have[x/64]&bit != 0 {
		return o.vals[x], nil
	}
	p, err := probe(cfg)
	if err != nil {
		return 0, err
	}
	o.vals[x] = p
	o.have[x/64] |= bit
	o.probes++
	return p, nil
}

// axisIndex returns the position of v on axis, or -1.
//
//ssim:hotpath
func axisIndex(axis []int, v int) int {
	for i, x := range axis {
		if x == v {
			return i
		}
	}
	return -1
}

// Search finds the objective-maximizing configuration on the lattice,
// starting the ascent from start (any off-lattice or zero start falls back
// to the lattice midpoint). tie supplies the cost vector for PreferOnTie
// tie-breaking, so plateau resolution matches the exhaustive sweep's.
//
// The ascent evaluates the full 8-neighborhood in index space — axis moves
// plus diagonals, because the budget constraint makes equal-cost trades
// (one Slice for two banks under area prices) exactly the moves a
// unimodal-in-axes surface can hide — and moves to the neighbor that wins
// under Better. On convergence it line-searches the row and column through
// the candidate (the cross check): any improvement resumes the ascent.
//
// The search is multi-start: a second ascent runs from the cheapest lattice
// corner and the better converged candidate wins. U = (B/cost)·P^k divides
// by cost, so whenever P grows sublinearly the surface splits into two
// basins — a performance basin near the warm start and a frugal basin near
// the cheap corner — and a single ascent started in one cannot see the
// other. The two ascents anchor both basins and the cross check catches
// axis-aligned ridges. A basin neither ascent reaches is missed: the
// differential tests against the full grid are what measure exactness.
func (o *Optimizer) Search(obj Objective, tie Market, start Config, probe ProbeFn) (SearchResult, error) {
	si := axisIndex(o.slices, start.Slices)
	ci := axisIndex(o.caches, start.CacheKB)
	if si < 0 || ci < 0 {
		si, ci = len(o.slices)/2, len(o.caches)/2
	}
	probes0 := o.probes
	score := func(i, j int) (Config, float64, float64, error) {
		cfg := Config{Slices: o.slices[i], CacheKB: o.caches[j]}
		p, err := o.perf(i, j, cfg, probe)
		if err != nil {
			return cfg, 0, 0, err
		}
		return cfg, p, obj(p, cfg), nil
	}
	// ascend climbs from (si, ci) to a local optimum that also survives the
	// row/column cross check.
	ascend := func(si, ci int) (cfg Config, p, v float64, err error) {
		cur, curP, curV, err := score(si, ci)
		if err != nil {
			return cur, 0, 0, err
		}
		for {
			// Best neighbor in the 8-neighborhood, deterministic order.
			bi, bj := si, ci
			best, bestP, bestV := cur, curP, curV
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					if di == 0 && dj == 0 {
						continue
					}
					ni, nj := si+di, ci+dj
					if ni < 0 || ni >= len(o.slices) || nj < 0 || nj >= len(o.caches) {
						continue
					}
					cfg, p, v, serr := score(ni, nj)
					if serr != nil {
						return cfg, 0, 0, serr
					}
					if Better(tie, v, cfg, bestV, best) {
						bi, bj, best, bestP, bestV = ni, nj, cfg, p, v
					}
				}
			}
			if bi != si || bj != ci {
				si, ci, cur, curP, curV = bi, bj, best, bestP, bestV
				continue
			}
			// Converged: cross check — line-search the full row and column
			// through the candidate; resume the ascent on any improvement.
			mi, mj := si, ci
			for j := range o.caches {
				cfg, p, v, serr := score(si, j)
				if serr != nil {
					return cfg, 0, 0, serr
				}
				if Better(tie, v, cfg, bestV, best) {
					mi, mj, best, bestP, bestV = si, j, cfg, p, v
				}
			}
			for i := range o.slices {
				cfg, p, v, serr := score(i, ci)
				if serr != nil {
					return cfg, 0, 0, serr
				}
				if Better(tie, v, cfg, bestV, best) {
					mi, mj, best, bestP, bestV = i, ci, cfg, p, v
				}
			}
			if mi == si && mj == ci {
				return cur, curP, curV, nil
			}
			si, ci, cur, curP, curV = mi, mj, best, bestP, bestV
		}
	}
	cur, curP, curV, err := ascend(si, ci)
	if err != nil {
		return SearchResult{}, err
	}
	if si != 0 || ci != 0 {
		// Second start at the cheapest corner to anchor the frugal basin.
		fr, frP, frV, err := ascend(0, 0)
		if err != nil {
			return SearchResult{}, err
		}
		if Better(tie, frV, fr, curV, cur) {
			cur, curP, curV = fr, frP, frV
		}
	}
	return SearchResult{Best: cur, Perf: curP, Score: curV, Probes: o.probes - probes0}, nil
}
