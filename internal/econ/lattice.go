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
// probe may be expensive (a simulator run) or cheap (a results-cache hit).
// The search keeps no memo and calls the probe on every visit; a caller
// whose probe is expensive memoizes behind it (market.SurfaceCache, the
// dense memo every allocation search probes through).
type ProbeFn func(Config) (float64, error)

// Objective scores a configuration given its measured performance. The two
// objectives in use are Utility.Value at the current market prices (bid
// pricing) and the fleet's utility per watt.
type Objective func(perf float64, cfg Config) float64

// Config.Valid (Equation 3) admits 1-8 Slices and 0-8 MB of L2 in 64 KB
// banks, so a lattice has at most 8 x 129 = 1,032 points.
const (
	maxSlices      = 8
	maxBanks       = 8192 / 64
	maxLatticeSize = maxSlices * (maxBanks + 1)
)

// Lattice is the (Slices x CacheKB) configuration lattice the search runs
// over (experiments.StdSlices x StdCaches is the paper's). It is immutable
// and validated once, by NewLattice. Point (i, j) — slices[i] Slices,
// caches[j] KB — has the dense index i*len(caches)+j, which is also its
// slot in a Surface's values and in market.SurfaceCache's memo.
type Lattice struct {
	slices, caches []int
	// sliceAt[s] and cacheAt[kb/64] are the axis positions of s Slices and
	// kb KB plus one; 0 marks a value off the axis. The two tables encode
	// the axes completely, so they are also what Equal compares.
	sliceAt [maxSlices + 1]int
	cacheAt [maxBanks + 1]int
}

// NewLattice builds the lattice over the given axes. Both must be non-empty
// and strictly ascending, and every point must be a valid configuration.
func NewLattice(slices, caches []int) (*Lattice, error) {
	if len(slices) == 0 || len(caches) == 0 {
		return nil, fmt.Errorf("econ: empty lattice axis")
	}
	l := &Lattice{slices: append([]int(nil), slices...), caches: append([]int(nil), caches...)}
	for i, s := range slices {
		if i > 0 && s <= slices[i-1] {
			return nil, fmt.Errorf("econ: slice axis not ascending: %v", slices)
		}
		if !(Config{Slices: s}).Valid() {
			return nil, fmt.Errorf("econ: slice axis %v: %d Slices is not a valid configuration", slices, s)
		}
		l.sliceAt[s] = i + 1
	}
	for j, kb := range caches {
		if j > 0 && kb <= caches[j-1] {
			return nil, fmt.Errorf("econ: cache axis not ascending: %v", caches)
		}
		if !(Config{Slices: 1, CacheKB: kb}).Valid() {
			return nil, fmt.Errorf("econ: cache axis %v: %d KB is not a valid configuration", caches, kb)
		}
		l.cacheAt[kb/64] = j + 1
	}
	return l, nil
}

// Size returns the number of configurations on the lattice — the probe cost
// of one exhaustive sweep.
func (l *Lattice) Size() int { return len(l.slices) * len(l.caches) }

// Index returns the dense index of cfg, and false when cfg is not a point
// of the lattice.
//
//ssim:hotpath
func (l *Lattice) Index(cfg Config) (int, bool) {
	if !cfg.Valid() {
		return 0, false
	}
	i, j := l.sliceAt[cfg.Slices], l.cacheAt[cfg.CacheKB/64]
	if i == 0 || j == 0 {
		return 0, false
	}
	return (i-1)*len(l.caches) + j - 1, true
}

// Point returns the configuration at dense index x, 0 <= x < Size().
func (l *Lattice) Point(x int) Config {
	nc := len(l.caches)
	return Config{Slices: l.slices[x/nc], CacheKB: l.caches[x%nc]}
}

// Equal reports whether l and o have the same axes.
func (l *Lattice) Equal(o *Lattice) bool {
	return l.sliceAt == o.sliceAt && l.cacheAt == o.cacheAt
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
	// Probes counts the distinct configurations the search visited: at most
	// Size(). It is the number of lookups a memo behind the probe serves
	// (revisits within the search do not count).
	Probes int
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
//
// The search is a pure function of its arguments. Its only state is a
// visited bitset on the stack, which counts SearchResult.Probes.
func (l *Lattice) Search(obj Objective, tie Market, start Config, probe ProbeFn) (SearchResult, error) {
	nc := len(l.caches)
	x, ok := l.Index(start)
	if !ok {
		x = len(l.slices)/2*nc + nc/2
	}
	si, ci := x/nc, x%nc
	var seen [(maxLatticeSize + 63) / 64]uint64
	probes := 0
	score := func(i, j int) (Config, float64, float64, error) {
		cfg := Config{Slices: l.slices[i], CacheKB: l.caches[j]}
		p, err := probe(cfg)
		if err != nil {
			return cfg, 0, 0, err
		}
		if k := i*nc + j; seen[k/64]&(1<<(k%64)) == 0 {
			seen[k/64] |= 1 << (k % 64)
			probes++
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
					if ni < 0 || ni >= len(l.slices) || nj < 0 || nj >= nc {
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
			for j := range l.caches {
				cfg, p, v, serr := score(si, j)
				if serr != nil {
					return cfg, 0, 0, serr
				}
				if Better(tie, v, cfg, bestV, best) {
					mi, mj, best, bestP, bestV = si, j, cfg, p, v
				}
			}
			for i := range l.slices {
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
	return SearchResult{Best: cur, Perf: curP, Score: curV, Probes: probes}, nil
}
