package market

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sharing/internal/econ"
)

// SurfaceCache is a shared, concurrency-safe memo of probed performance
// values P(bench[, phase], cfg), designed for every search — the fleet's
// shards, the daemon's concurrent bids, the experiments drivers — to share one
// probe economy. A configuration any search has ever probed is a hit for
// every other.
//
// The hot path (a probe hit) takes no lock at all: each surface publishes an
// immutable map snapshot through an atomic pointer, and readers do one atomic
// load plus one map lookup. Misses are rare after warm-up and serialize on a
// per-surface mutex that doubles as the singleflight: concurrent searches
// asking for the same unprobed configuration produce one prober call, and the
// copy-on-write republish makes the new value visible to subsequent lock-free
// readers. The race detector covers this structure via the sharing tests:
// TestSurfaceCacheSharedAcrossEngines and TestSurfaceCacheServerLoad here,
// TestSharedSurfaceCache and the race tests in internal/alloc, and the
// fleet's shard-count differential.
//
// Determinism: probe values are deterministic functions of (surface, cfg), so
// although *which* search pays a miss depends on scheduling, the memo contents
// and the deterministic Unique count — the union of configurations any search
// visited — do not.
type SurfaceCache struct {
	prober Prober

	surfaces sync.Map     // surfaceKey -> *surfaceMemo
	unique   atomic.Int64 // memoized entries across all surfaces
	misses   atomic.Int64 // prober calls issued (>= unique only on races, never: mu serializes)
	nsurf    atomic.Int64 // distinct surfaces touched
}

// surfaceMemo is one surface's memo: an immutable published snapshot plus a
// mutex serializing misses.
type surfaceMemo struct {
	vals atomic.Pointer[map[econ.Config]float64]
	mu   sync.Mutex
}

// NewSurfaceCache builds a shared cache over the given prober.
func NewSurfaceCache(prober Prober) (*SurfaceCache, error) {
	if prober == nil {
		return nil, fmt.Errorf("market: nil prober")
	}
	return &SurfaceCache{prober: prober}, nil
}

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
	m, loaded := c.surfaces.LoadOrStore(k, &surfaceMemo{})
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
// surface. Hits are lock-free.
//
//ssim:parallel
func (s Surface) Probe(cfg econ.Config) (float64, error) {
	c, m, bench, phase := s.c, s.m, s.key.bench, s.key.phase
	if vals := m.vals.Load(); vals != nil {
		if p, ok := (*vals)[cfg]; ok {
			return p, nil
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Re-check under the lock: a concurrent miss may have published it.
	old := m.vals.Load()
	if old != nil {
		if p, ok := (*old)[cfg]; ok {
			return p, nil
		}
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
	c.misses.Add(1)
	// Copy-on-write republish; readers only ever see complete snapshots.
	var next map[econ.Config]float64
	if old == nil {
		next = map[econ.Config]float64{cfg: p}
	} else {
		next = make(map[econ.Config]float64, len(*old)+1)
		//ssim:nolint maprange: copying one map into another keyed by the same key is order-independent
		for k, v := range *old {
			next[k] = v
		}
		next[cfg] = p
	}
	m.vals.Store(&next)
	c.unique.Add(1)
	return p, nil
}

// Unique returns the number of distinct (surface, configuration) points ever
// probed — the shared probe economy's denominator-free cost. It is
// deterministic across shard counts: every search's visited set is a
// deterministic function of its (surface, prices, warm start), so the union
// does not depend on which shard ran which search.
func (c *SurfaceCache) Unique() int { return int(c.unique.Load()) }

// Misses returns the prober calls issued (equals Unique: the per-surface
// mutex singleflights concurrent misses).
func (c *SurfaceCache) Misses() int64 { return c.misses.Load() }

// NumSurfaces returns the distinct surfaces touched so far.
func (c *SurfaceCache) NumSurfaces() int { return int(c.nsurf.Load()) }
