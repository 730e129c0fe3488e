package econ

import (
	"fmt"
	"math"
)

// Dynamic phase analysis (§5.10, Table 7): gcc is split into ten phases,
// each simulated independently across the configuration grid; the VCore is
// reconfigured between phases at the hypervisor's cost (10,000 cycles when
// the cache allocation changes, 500 when only the Slice count changes), and
// the dynamic schedule's perf^k/area is compared with the best static
// configuration for the same program.

// PhaseData is one phase's measurements.
type PhaseData struct {
	// Insts is the instruction count of the phase's trace.
	Insts uint64
	// Cycles maps each configuration to the phase's execution time.
	Cycles map[Config]int64
}

// PhaseSchedule is the outcome of the dynamic analysis for one metric.
type PhaseSchedule struct {
	K int
	// PerPhase is the chosen configuration per phase.
	PerPhase []Config
	// StaticBest is the best single configuration across all phases.
	StaticBest Config
	// DynGME and StaticGME are geometric means of the per-phase
	// perf^k/area metric, with reconfiguration costs charged to the
	// dynamic schedule.
	DynGME, StaticGME float64
	// Gain is DynGME/StaticGME - 1.
	Gain float64
}

// ReconfigCostFn prices a configuration change.
type ReconfigCostFn func(from, to Config) int64

// PhaseAnalysis computes Table 7 for one metric exponent k.
func PhaseAnalysis(phases []PhaseData, k int, reconfig ReconfigCostFn) (*PhaseSchedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("econ: no phases")
	}
	var configs []Config
	for c := range phases[0].Cycles {
		configs = append(configs, c)
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("econ: phase 0 has no measurements")
	}
	metric := func(ph PhaseData, c Config, extraCycles int64) (float64, error) {
		cyc, ok := ph.Cycles[c]
		if !ok {
			return 0, fmt.Errorf("econ: config %v not measured in every phase", c)
		}
		perf := float64(ph.Insts) / float64(cyc+extraCycles)
		return Metric(k, perf, c), nil
	}
	// Sort the candidate enumeration once: PhaseAnalysis previously
	// re-sorted inside every phase loop and again per static candidate.
	ordered := sortConfigs(configs)
	// Per-phase optimum, ignoring reconfiguration cost during selection
	// (as the paper does; costs are charged to the resulting schedule).
	sched := &PhaseSchedule{K: k, PerPhase: make([]Config, len(phases))}
	tie := Market2() // area prices, consistent with the Metric objective
	for i, ph := range phases {
		best := math.Inf(-1)
		for ci, c := range ordered {
			m, err := metric(ph, c, 0)
			if err != nil {
				return nil, err
			}
			if ci == 0 || Better(tie, m, c, best, sched.PerPhase[i]) {
				best = m
				sched.PerPhase[i] = c
			}
		}
	}
	// Dynamic GME with reconfiguration charged when the config changes.
	dyn := make([]float64, len(phases))
	for i, ph := range phases {
		var extra int64
		if i > 0 {
			extra = reconfig(sched.PerPhase[i-1], sched.PerPhase[i])
		}
		m, err := metric(ph, sched.PerPhase[i], extra)
		if err != nil {
			return nil, err
		}
		dyn[i] = m
	}
	sched.DynGME = GME(dyn)
	// Static best: single config maximizing the GME across phases, under the
	// same explicit tie-break as the per-phase selection.
	bestStatic := math.Inf(-1)
	haveStatic := false
	for _, c := range ordered {
		vals := make([]float64, len(phases))
		ok := true
		for i, ph := range phases {
			m, err := metric(ph, c, 0)
			if err != nil {
				ok = false
				break
			}
			vals[i] = m
		}
		if !ok {
			continue
		}
		if g := GME(vals); !haveStatic || Better(tie, g, c, bestStatic, sched.StaticBest) {
			bestStatic = g
			sched.StaticBest = c
			haveStatic = true
		}
	}
	sched.StaticGME = bestStatic
	if sched.StaticGME > 0 {
		sched.Gain = sched.DynGME/sched.StaticGME - 1
	}
	return sched, nil
}

// PhaseProbeFn measures one phase of the program at one configuration,
// returning the phase's instruction count and execution cycles.
type PhaseProbeFn func(phase int, cfg Config) (insts uint64, cycles int64, err error)

// IncrementalPhaseSchedule is the probe-driven counterpart of PhaseSchedule:
// the same per-phase configuration choices and dynamic GME, discovered by
// warm-started lattice search instead of a full per-phase grid. It omits the
// static-best comparison — computing it requires the full grid for every
// phase, which is exactly what the incremental path avoids.
type IncrementalPhaseSchedule struct {
	K        int
	PerPhase []Config
	// Probes is the simulator probes issued per phase. Consecutive program
	// phases have similar working sets, so each phase's search warm-starts
	// from the previous phase's optimum and converges in a few probes.
	Probes []int
	// ReconfigCycles is the total hypervisor reconfiguration cost charged
	// across phase transitions.
	ReconfigCycles int64
	// DynGME is the geometric mean of the per-phase perf^k/area metric with
	// reconfiguration charged, as in PhaseSchedule.
	DynGME float64
}

// IncrementalPhaseAnalysis computes the dynamic schedule of PhaseAnalysis
// without measuring full per-phase grids: each phase is searched over the
// lattice slices x caches (strictly ascending, non-empty axes), phase 0
// from the lattice midpoint (or warmStart, when the caller has one — e.g.
// the program's whole-run optimum) and each later phase warm-started from
// the previous phase's choice. Both optimize Metric under the Better
// tie-break over the same lattice; the differential tests in econ and
// experiments check that the chosen configurations equal PhaseAnalysis's.
func IncrementalPhaseAnalysis(nPhases, k int, slices, caches []int, warmStart Config, probe PhaseProbeFn, reconfig ReconfigCostFn) (*IncrementalPhaseSchedule, error) {
	if nPhases <= 0 {
		return nil, fmt.Errorf("econ: no phases")
	}
	sched := &IncrementalPhaseSchedule{
		K:        k,
		PerPhase: make([]Config, nPhases),
		Probes:   make([]int, nPhases),
	}
	lat, err := NewLattice(slices, caches)
	if err != nil {
		return nil, err
	}
	tie := Market2()
	obj := func(perf float64, cfg Config) float64 { return Metric(k, perf, cfg) }
	// The per-phase cycle counts behind the chosen configs, for the GME.
	insts := make([]uint64, nPhases)
	cycles := make([]int64, nPhases)
	start := warmStart
	for ph := 0; ph < nPhases; ph++ {
		// Each phase is a distinct performance surface, so it gets its own
		// memo; the warm start is what carries cross-phase locality. The
		// memo answers the search's revisits, so probe runs once per
		// distinct configuration.
		var phInsts uint64
		phCycles := make(map[Config]phaseRun)
		res, err := lat.Search(obj, tie, start, func(cfg Config) (float64, error) {
			if r, ok := phCycles[cfg]; ok {
				return r.perf, nil
			}
			n, cyc, perr := probe(ph, cfg)
			if perr != nil {
				return 0, perr
			}
			if cyc <= 0 {
				return 0, fmt.Errorf("econ: phase %d %v: non-positive cycles %d", ph, cfg, cyc)
			}
			phInsts = n
			r := phaseRun{cycles: cyc, perf: float64(n) / float64(cyc)}
			phCycles[cfg] = r
			return r.perf, nil
		})
		if err != nil {
			return nil, err
		}
		sched.PerPhase[ph] = res.Best
		sched.Probes[ph] = res.Probes
		insts[ph] = phInsts
		cycles[ph] = phCycles[res.Best].cycles
		start = res.Best
	}
	// Dynamic GME with reconfiguration charged when the config changes,
	// exactly as PhaseAnalysis does.
	dyn := make([]float64, nPhases)
	for i := 0; i < nPhases; i++ {
		var extra int64
		if i > 0 {
			extra = reconfig(sched.PerPhase[i-1], sched.PerPhase[i])
			sched.ReconfigCycles += extra
		}
		perf := float64(insts[i]) / float64(cycles[i]+extra)
		dyn[i] = Metric(k, perf, sched.PerPhase[i])
	}
	sched.DynGME = GME(dyn)
	return sched, nil
}

// phaseRun is one probed phase measurement: its cycles and the performance
// the search scored.
type phaseRun struct {
	cycles int64
	perf   float64
}

func sortConfigs(cs []Config) []Config {
	out := append([]Config(nil), cs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.Slices < b.Slices || (a.Slices == b.Slices && a.CacheKB <= b.CacheKB) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}
