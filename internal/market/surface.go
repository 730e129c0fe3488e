package market

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sharing/internal/econ"
)

// SurfaceCache is the shared, concurrency-safe memo of probed performance
// values P(bench[, phase], cfg) over one econ.Lattice, and the only probe
// memo the searches have: the fleet's shards, the daemon's concurrent bids
// and the experiments drivers all probe through it, and a configuration any
// search has ever probed is a hit for every other.
//
// Each surface is stored densely, once, when it is first touched: one atomic
// value slot per lattice point (at the point's Lattice.Index) plus an atomic
// presence bitset. A hit takes no lock: one bit load and one value load.
// A miss serializes on a per-surface mutex that doubles as the singleflight:
// concurrent searches asking for the same unprobed configuration produce one
// prober call, which fills its slot and then sets its presence bit, so a
// lock-free reader that sees the bit sees the value. Nothing is ever
// republished. The race detector covers this structure via the sharing
// tests: TestSurfaceCacheSharedAcrossEngines and TestSurfaceCacheServerLoad
// here, TestSharedSurfaceCache and the race tests in internal/alloc, and the
// fleet's shard-count differential.
//
// Determinism: probe values are deterministic functions of (surface, cfg), so
// although *which* search pays a miss depends on scheduling, the memo contents
// and the deterministic Unique count — the union of configurations any search
// visited — do not.
type SurfaceCache struct {
	lat    *econ.Lattice
	prober Prober

	surfaces sync.Map     // surfaceKey -> *surfaceMemo
	unique   atomic.Int64 // filled slots across all surfaces
	nsurf    atomic.Int64 // distinct surfaces touched
}

// surfaceMemo is one surface's dense memo: vals[x] holds the Float64bits of
// the value at lattice index x once bit x of have is set. mu serializes
// misses.
type surfaceMemo struct {
	vals []atomic.Uint64
	have []atomic.Uint64
	mu   sync.Mutex
}

// NewSurfaceCache builds a shared cache of the surfaces over lat, measured
// through prober.
func NewSurfaceCache(lat *econ.Lattice, prober Prober) (*SurfaceCache, error) {
	if lat == nil {
		return nil, fmt.Errorf("market: nil lattice")
	}
	if prober == nil {
		return nil, fmt.Errorf("market: nil prober")
	}
	return &SurfaceCache{lat: lat, prober: prober}, nil
}

// Lattice returns the lattice the cache's surfaces are stored over.
func (c *SurfaceCache) Lattice() *econ.Lattice { return c.lat }

// Phased reports whether the underlying prober can measure phases, i.e.
// whether per-phase surfaces can be served through this cache.
func (c *SurfaceCache) Phased() bool {
	_, ok := c.prober.(PhaseProber)
	return ok
}

func (c *SurfaceCache) memoFor(k surfaceKey) *surfaceMemo {
	if m, ok := c.surfaces.Load(k); ok {
		return m.(*surfaceMemo)
	}
	n := c.lat.Size()
	m, loaded := c.surfaces.LoadOrStore(k, &surfaceMemo{
		vals: make([]atomic.Uint64, n),
		have: make([]atomic.Uint64, (n+63)/64),
	})
	if !loaded {
		c.nsurf.Add(1)
	}
	return m.(*surfaceMemo)
}

// Surface is one surface of a SurfaceCache, resolved once so that a search
// probing it many times skips the surface lookup on every probe.
type Surface struct {
	c   *SurfaceCache
	key surfaceKey
	m   *surfaceMemo
}

// Surface resolves the handle of the given surface (phase WholeProgram for
// a whole-benchmark surface).
func (c *SurfaceCache) Surface(bench string, phase int) Surface {
	k := surfaceKey{bench: bench, phase: phase}
	return Surface{c: c, key: k, m: c.memoFor(k)}
}

// Probe returns the memoized or freshly measured performance of cfg on this
// surface. Hits are lock-free. A configuration off the cache's lattice is
// an error.
//
//ssim:parallel
func (s Surface) Probe(cfg econ.Config) (float64, error) {
	c, m, bench, phase := s.c, s.m, s.key.bench, s.key.phase
	x, ok := c.lat.Index(cfg)
	if !ok {
		return 0, fmt.Errorf("market: %v is not on the lattice (bench %s)", cfg, bench)
	}
	word, bit := &m.have[x/64], uint64(1)<<(x%64)
	if word.Load()&bit != 0 {
		return math.Float64frombits(m.vals[x].Load()), nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Re-check under the lock: a concurrent miss may have filled it.
	if word.Load()&bit != 0 {
		return math.Float64frombits(m.vals[x].Load()), nil
	}
	var p float64
	var err error
	if phase == WholeProgram {
		p, err = c.prober.Probe(bench, cfg)
	} else {
		pp, ok := c.prober.(PhaseProber)
		if !ok {
			return 0, fmt.Errorf("market: prober cannot measure phases (bench %s phase %d)", bench, phase)
		}
		p, err = pp.ProbePhase(bench, phase, cfg)
	}
	if err != nil {
		return 0, err
	}
	// Value first, then the presence bit; only mu holders write have.
	m.vals[x].Store(math.Float64bits(p))
	word.Store(word.Load() | bit)
	c.unique.Add(1)
	return p, nil
}

// Unique returns the number of distinct (surface, configuration) points ever
// probed — the shared probe economy's denominator-free cost. It is
// deterministic across shard counts: every search's visited set is a
// deterministic function of its (surface, prices, warm start), so the union
// does not depend on which shard ran which search.
func (c *SurfaceCache) Unique() int { return int(c.unique.Load()) }

// Misses returns the prober calls that filled a slot: one per unique point,
// since the per-surface mutex singleflights concurrent misses.
func (c *SurfaceCache) Misses() int64 { return c.unique.Load() }

// NumSurfaces returns the distinct surfaces touched so far.
func (c *SurfaceCache) NumSurfaces() int { return int(c.nsurf.Load()) }
