// Package market is the probe economy behind the online market: the shared,
// concurrency-safe SurfaceCache of measured performance values P(bench[,
// phase], cfg), the Prober interfaces it measures through, and the BidResult
// every pricing path returns.
//
// The batch path (internal/experiments + internal/econ) regenerates the
// paper's tables by sweeping every benchmark over the full
// (Slices x CacheKB) lattice and then optimizing over the measured grid.
// That is the right shape for figures and the wrong shape for a provider
// pricing arrivals one at a time (§2, §5.6-§5.10). The allocation core
// (internal/alloc) prices each bid by incremental search instead, probing
// only the configurations the search visits; this package memoizes those
// probes once for every consumer — the fleet simulator, the experiments
// drivers and the sharingd daemon — so a configuration anyone has probed is
// a lock-free hit for all.
package market

import "sharing/internal/econ"

// Prober supplies the measured performance P(c) of one benchmark at one
// configuration. experiments.RunnerProber adapts the sweeping Runner (and
// with it the content-addressed results cache and singleflight) to this
// interface; tests use synthetic surfaces.
type Prober interface {
	Probe(bench string, cfg econ.Config) (float64, error)
}

// PhaseProber extends Prober to per-phase measurements, enabling per-phase
// reconfiguration under churn.
type PhaseProber interface {
	Prober
	ProbePhase(bench string, phase int, cfg econ.Config) (float64, error)
}

// WholeProgram marks a customer running its whole benchmark (no phase).
const WholeProgram = -1

// BidResult is the outcome of pricing one bid.
type BidResult struct {
	Config  econ.Config
	Perf    float64 // measured performance at Config
	Utility float64 // utility at the bid's prices
	Cost    float64 // price of one VCore at Config
	VCores  float64 // fractional VCores the budget affords
	// Probes is the configurations this bid's search looked up.
	Probes int
}

// surfaceKey identifies one performance surface: a benchmark, or one phase
// of it.
type surfaceKey struct {
	bench string
	phase int
}
