package econ

import "fmt"

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
	// Cycles holds the phase's execution time at each configuration. The
	// counts are integers below 2^53, so float64 holds them exactly.
	Cycles *Surface
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

// PhaseAnalysis computes Table 7 for one metric exponent k. Every phase must
// be measured on phase 0's lattice.
func PhaseAnalysis(phases []PhaseData, k int, reconfig ReconfigCostFn) (*PhaseSchedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("econ: no phases")
	}
	lat := phases[0].Cycles.Lattice
	perf := make([]*Surface, len(phases))
	for i, ph := range phases {
		if !ph.Cycles.Lattice.Equal(lat) {
			return nil, fmt.Errorf("econ: phase %d is measured on a different lattice than phase 0", i)
		}
		perf[i] = NewSurface(lat)
		for x, cyc := range ph.Cycles.Values {
			perf[i].Values[x] = float64(ph.Insts) / cyc
		}
	}
	// Per-phase optimum, ignoring reconfiguration cost during selection
	// (as the paper does; costs are charged to the resulting schedule).
	// Ties resolve under area prices, consistent with the Metric objective.
	tie := Market2()
	metric := func(c Config, p float64) float64 { return Metric(k, p, c) }
	sched := &PhaseSchedule{K: k, PerPhase: make([]Config, len(phases))}
	for i := range phases {
		sched.PerPhase[i], _ = argmax(tie, perf[i], metric)
	}
	// Dynamic GME with reconfiguration charged when the config changes.
	dyn := make([]float64, len(phases))
	for i, ph := range phases {
		c := sched.PerPhase[i]
		var extra int64
		if i > 0 {
			extra = reconfig(sched.PerPhase[i-1], c)
		}
		cyc, _ := ph.Cycles.At(c) // c is a point of the phase's lattice
		dyn[i] = Metric(k, float64(ph.Insts)/float64(int64(cyc)+extra), c)
	}
	sched.DynGME = GME(dyn)
	// Static best: the single config maximizing the GME across phases.
	static := NewSurface(lat)
	vals := make([]float64, len(phases))
	for x := range static.Values {
		c := lat.Point(x)
		for i := range phases {
			vals[i] = metric(c, perf[i].Values[x])
		}
		static.Values[x] = GME(vals)
	}
	sched.StaticBest, sched.StaticGME = argmax(tie, static, scored)
	if sched.StaticGME > 0 {
		sched.Gain = sched.DynGME/sched.StaticGME - 1
	}
	return sched, nil
}
