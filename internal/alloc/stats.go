package alloc

import "sync/atomic"

// counters is the Allocator's internal telemetry: all atomics, so the
// lock-free serving paths never serialize on accounting.
type counters struct {
	bids         atomic.Int64
	arrivals     atomic.Int64
	departures   atomic.Int64
	phases       atomic.Int64
	epochs       atomic.Int64
	ops          atomic.Int64
	coalesced    atomic.Int64
	searches     atomic.Int64
	probeLookups atomic.Int64
	inflight     atomic.Int64
}

// Stats is a point-in-time snapshot of the Allocator's serving telemetry
// (JSON-ready: cmd/sharingd publishes it via expvar).
type Stats struct {
	// Bids counts stand-alone PriceBid requests served.
	Bids int64 `json:"bids"`
	// Arrivals/Departures/PhaseChanges count committed membership ops.
	Arrivals     int64 `json:"arrivals"`
	Departures   int64 `json:"departures"`
	PhaseChanges int64 `json:"phaseChanges"`
	// Epochs counts clearing rounds run; Ops the membership ops they
	// committed. Coalesced = Ops - Epochs: the repricings batching saved
	// over one-reclear-per-op serialization.
	Epochs    int64 `json:"epochs"`
	Ops       int64 `json:"ops"`
	Coalesced int64 `json:"coalesced"`
	// Searches counts optimum searches (bids plus tatonnement responses).
	Searches int64 `json:"searches"`
	// Fallbacks is always 0: the search has no exhaustive fallback. The
	// field stays only because perfbench's alloc.fallbacks counter still
	// reads it.
	Fallbacks int64 `json:"fallbacks"`
	// ProbeLookups counts the distinct configurations each search looked
	// up in the shared surface cache (a search's revisits are not
	// counted); CacheMisses the ones that cost a prober call (simulator
	// work). ProbeLookups - CacheMisses were served lock-free.
	ProbeLookups int64 `json:"probeLookups"`
	CacheMisses  int64 `json:"cacheMisses"`
	// InFlight is the current gauge of requests inside the Allocator.
	InFlight int64 `json:"inFlight"`
	// Residents is the current market population; Epoch the last committed
	// clearing epoch.
	Residents int    `json:"residents"`
	Epoch     uint64 `json:"epoch"`
	// Surfaces and UniquePoints describe the shared probe economy: distinct
	// performance surfaces touched and distinct (surface, configuration)
	// points ever probed. GridProbes is the batch alternative's cost — one
	// full lattice sweep per surface.
	Surfaces     int `json:"surfaces"`
	UniquePoints int `json:"uniquePoints"`
	GridProbes   int `json:"gridProbes"`
}

// Stats returns a snapshot of the serving telemetry. The counters are read
// individually (not under one lock), so cross-counter invariants hold only
// quiescently; each value is itself exact.
func (a *Allocator) Stats() Stats {
	v := a.view.Load()
	return Stats{
		Bids:         a.stats.bids.Load(),
		Arrivals:     a.stats.arrivals.Load(),
		Departures:   a.stats.departures.Load(),
		PhaseChanges: a.stats.phases.Load(),
		Epochs:       a.stats.epochs.Load(),
		Ops:          a.stats.ops.Load(),
		Coalesced:    a.stats.coalesced.Load(),
		Searches:     a.stats.searches.Load(),
		ProbeLookups: a.stats.probeLookups.Load(),
		CacheMisses:  a.cache.Misses(),
		InFlight:     a.stats.inflight.Load(),
		Residents:    len(v.VMs),
		Epoch:        v.Epoch,
		Surfaces:     a.cache.NumSurfaces(),
		UniquePoints: a.cache.Unique(),
		GridProbes:   a.cache.NumSurfaces() * a.LatticeSize(),
	}
}
