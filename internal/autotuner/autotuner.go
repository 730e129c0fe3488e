// Package autotuner implements the configuration auto-tuner the paper
// proposes for customers who lack an application performance model (§4):
// "The auto-tuner would slowly search the configuration space by varying
// the VM instance configuration ... [it] would likely require the use of a
// heartbeat or performance feedback."
//
// The tuner is an online hill climber over the (Slices, L2 banks) lattice.
// At each program phase it spends a small probe fraction of the phase
// measuring its current configuration and the lattice neighbours via
// heartbeat (observed cycles), pays the hypervisor's reconfiguration costs
// for every move, then runs the phase remainder on the winner. It needs no
// model of the application — only the feedback signal — and is compared
// against the oracle dynamic schedule and the best static configuration of
// econ.PhaseAnalysis.
package autotuner

import (
	"fmt"

	"sharing/internal/econ"
)

// Schedule is the tuner's outcome.
type Schedule struct {
	K int
	// PerPhase is the configuration the tuner settled on for each phase.
	PerPhase []econ.Config
	// GME is the geometric mean of the per-phase perf^k/area metric with
	// all probe and reconfiguration overheads charged.
	GME float64
	// Probes counts configuration evaluations performed.
	Probes int
	// Moves counts reconfigurations (including exploratory ones).
	Moves int
}

// neighbours returns the lattice moves from cfg: one Slice up/down, cache
// doubled/halved (64 KB granularity, 0 allowed), clipped to Equation 3.
func neighbours(cfg econ.Config) []econ.Config {
	var out []econ.Config
	add := func(c econ.Config) {
		if c.Valid() && c != cfg {
			out = append(out, c)
		}
	}
	add(econ.Config{Slices: cfg.Slices + 1, CacheKB: cfg.CacheKB})
	add(econ.Config{Slices: cfg.Slices - 1, CacheKB: cfg.CacheKB})
	switch {
	case cfg.CacheKB == 0:
		add(econ.Config{Slices: cfg.Slices, CacheKB: 64})
	case cfg.CacheKB == 64:
		add(econ.Config{Slices: cfg.Slices, CacheKB: 0})
		add(econ.Config{Slices: cfg.Slices, CacheKB: 128})
	default:
		add(econ.Config{Slices: cfg.Slices, CacheKB: cfg.CacheKB / 2})
		add(econ.Config{Slices: cfg.Slices, CacheKB: cfg.CacheKB * 2})
	}
	return out
}

// Tune runs the online tuner over measured phases. probeFrac is the
// fraction of each phase spent evaluating each candidate (e.g. 0.05);
// start is the initial configuration; reconfig prices configuration moves.
func Tune(phases []econ.PhaseData, k int, probeFrac float64, start econ.Config, reconfig econ.ReconfigCostFn) (*Schedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("autotuner: no phases")
	}
	if probeFrac <= 0 || probeFrac > 0.5 {
		return nil, fmt.Errorf("autotuner: probe fraction %.3f outside (0, 0.5]", probeFrac)
	}
	if !start.Valid() {
		return nil, fmt.Errorf("autotuner: invalid start configuration %v", start)
	}
	sched := &Schedule{K: k, PerPhase: make([]econ.Config, len(phases))}
	cur := start
	var metrics []float64
	for pi, ph := range phases {
		cycAt := func(c econ.Config) (int64, error) {
			cyc, ok := ph.Cycles.At(c)
			if !ok {
				return 0, fmt.Errorf("autotuner: phase %d has no measurement for %v", pi, c)
			}
			return int64(cyc), nil
		}
		// Probe: heartbeat the current config and each neighbour, each on a
		// probeFrac slice of the phase. Probe slices still execute the
		// program (at the candidate's own rate); the costs are the slower-
		// than-best execution during exploration and the reconfigurations
		// between candidates.
		candidates := append([]econ.Config{cur}, neighbours(cur)...)
		var elapsed int64 // cycles spent so far in this phase
		covered := 0.0    // fraction of the phase's instructions done
		prev := cur
		bestCfg := cur
		bestMetric := -1.0
		for _, cand := range candidates {
			cyc, err := cycAt(cand)
			if err != nil {
				return nil, err
			}
			elapsed += reconfig(prev, cand) + int64(probeFrac*float64(cyc))
			covered += probeFrac
			prev = cand
			sched.Probes++
			// The tuner optimizes the customer's metric, computable from
			// the heartbeat rate and the (known) resource prices.
			if m := econ.Metric(k, 1.0/float64(cyc), cand); m > bestMetric {
				bestCfg, bestMetric = cand, m
			}
		}
		if bestCfg != prev {
			elapsed += reconfig(prev, bestCfg)
		}
		if bestCfg != cur {
			sched.Moves++ // a committed configuration change for this phase
		}
		cur = bestCfg
		sched.PerPhase[pi] = cur
		// Run the remainder of the phase on the chosen configuration.
		runCyc, err := cycAt(cur)
		if err != nil {
			return nil, err
		}
		total := elapsed + int64((1-covered)*float64(runCyc))
		perf := float64(ph.Insts) / float64(total)
		metrics = append(metrics, econ.Metric(k, perf, cur))
	}
	sched.GME = econ.GME(metrics)
	return sched, nil
}
