package experiments

import (
	"fmt"

	"sharing/internal/econ"
	"sharing/internal/fleet"
	"sharing/internal/workload"
)

// Fleet-scale experiments: the §5.9 datacenter construction extended from
// the hard-coded big/small pair to heterogeneous fleets of K core types, and
// the wiring that runs the fleet simulator against real simulator-measured
// surfaces through the Runner (results cache and singleflight included).

// NewFleet builds a fleet simulator whose pricing probes run the actual
// cycle-level simulator via r, on the standard configuration lattice.
func NewFleet(r *Runner, p fleet.Params) (*fleet.Fleet, error) {
	p.Slices = StdSlices
	p.CacheKB = StdCaches
	return fleet.New(p, RunnerProber{R: r})
}

// Fig17KResult is the K-type generalization of the Fig. 17 sweep: the core
// types (each benchmark's perf^k/area optimum), every evaluated share
// vector, and the per-mix optima.
type Fig17KResult struct {
	Types  []econ.CoreType
	Jobs   []string    // job-class names, in the order of every mix's fractions
	Mixes  [][]float64 // job-fraction vectors evaluated, one per point group
	Points []econ.FleetPoint
	Best   []econ.FleetPoint // per-mix utility-maximizing share vector
}

// Fig17K extends Fig. 17 to K benchmarks (all benchmarks when names is
// empty): each contributes a core type (its utility-2 optimum under
// Market2, the same construction that picked gobmk's and hmmer's peaks for
// the original pair; k = 2 is where this substrate's Fig. 17 peaks
// separate), job classes are the benchmarks themselves, and the datacenter
// sweeps the full K-simplex of area shares in quarters for each job mix (the
// single-class corners plus the uniform mix). The movement of the optimal
// share vector with the job mix is the paper's heterogeneity argument, now
// in K dimensions.
func Fig17K(r *Runner, names []string) (*Fig17KResult, error) {
	const k, steps = 2, 4
	if len(names) == 0 {
		names = workload.Names()
	}
	if len(names) < 2 {
		return nil, fmt.Errorf("experiments: fig17k needs at least 2 benchmarks, have %v", names)
	}
	perf := make([]*econ.Surface, len(names))
	types := make([]econ.CoreType, 0, len(names))
	seen := make(map[econ.Config]bool)
	for i, b := range names {
		g, err := r.Grid(b, StdSlices, StdCaches)
		if err != nil {
			return nil, err
		}
		perf[i] = g
		cfg, _ := econ.BestByMetric(k, g)
		if !seen[cfg] {
			seen[cfg] = true
			types = append(types, econ.CoreType{Name: b + "-opt", Cfg: cfg})
		}
	}
	if len(types) < 2 {
		// All benchmarks peak at the same configuration: fall back to the
		// classic big/small pair so the sweep still has a second axis.
		for _, ct := range []econ.CoreType{econ.BigCore(), econ.SmallCore()} {
			if !seen[ct.Cfg] {
				seen[ct.Cfg] = true
				types = append(types, ct)
			}
		}
	}
	var mixes [][]float64
	uniform := make([]float64, len(names))
	for j := range uniform {
		uniform[j] = 1 / float64(len(names))
	}
	mixes = append(mixes, uniform)
	for j := range names {
		corner := make([]float64, len(names))
		corner[j] = 1
		mixes = append(mixes, corner)
	}
	shares := econ.ShareGrid(len(types), steps)
	pts, err := econ.FleetMix(perf, types, k, shares, mixes)
	if err != nil {
		return nil, err
	}
	return &Fig17KResult{
		Types:  types,
		Jobs:   names,
		Mixes:  mixes,
		Points: pts,
		Best:   econ.OptimalShares(pts),
	}, nil
}
