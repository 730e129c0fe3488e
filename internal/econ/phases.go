package econ

import (
	"fmt"
	"sort"
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

// PhaseAnalysis computes Table 7 for one metric exponent k. The candidates
// are phase 0's configurations, and every phase must measure all of them.
func PhaseAnalysis(phases []PhaseData, k int, reconfig ReconfigCostFn) (*PhaseSchedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("econ: no phases")
	}
	configs := make([]Config, 0, len(phases[0].Cycles))
	for c := range phases[0].Cycles {
		configs = append(configs, c)
	}
	// Sorted, so a configuration missing from a later phase is reported the
	// same way on every run.
	sort.Slice(configs, func(i, j int) bool { return configLess(configs[i], configs[j]) })
	perf := make([]Grid, len(phases))
	for i, ph := range phases {
		perf[i] = make(Grid, len(configs))
		for _, c := range configs {
			cyc, ok := ph.Cycles[c]
			if !ok {
				return nil, fmt.Errorf("econ: config %v not measured in every phase", c)
			}
			perf[i][c] = float64(ph.Insts) / float64(cyc)
		}
	}
	// Per-phase optimum, ignoring reconfiguration cost during selection
	// (as the paper does; costs are charged to the resulting schedule).
	// Ties resolve under area prices, consistent with the Metric objective.
	tie := Market2()
	metric := func(c Config, p float64) float64 { return Metric(k, p, c) }
	sched := &PhaseSchedule{K: k, PerPhase: make([]Config, len(phases))}
	for i := range phases {
		best, _, ok := argmax(tie, perf[i], metric)
		if !ok {
			return nil, fmt.Errorf("econ: phase 0 has no valid measurements")
		}
		sched.PerPhase[i] = best
	}
	// Dynamic GME with reconfiguration charged when the config changes.
	dyn := make([]float64, len(phases))
	for i, ph := range phases {
		c := sched.PerPhase[i]
		var extra int64
		if i > 0 {
			extra = reconfig(sched.PerPhase[i-1], c)
		}
		dyn[i] = Metric(k, float64(ph.Insts)/float64(ph.Cycles[c]+extra), c)
	}
	sched.DynGME = GME(dyn)
	// Static best: the single config maximizing the GME across phases.
	static := make(Grid, len(configs))
	vals := make([]float64, len(phases))
	for _, c := range configs {
		for i := range phases {
			vals[i] = metric(c, perf[i][c])
		}
		static[c] = GME(vals)
	}
	sched.StaticBest, sched.StaticGME, _ = argmax(tie, static, scored)
	if sched.StaticGME > 0 {
		sched.Gain = sched.DynGME/sched.StaticGME - 1
	}
	return sched, nil
}
