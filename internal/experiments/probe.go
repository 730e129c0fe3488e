package experiments

import (
	"fmt"
	"slices"
	"sort"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/hypervisor"
	"sharing/internal/workload"
)

// This file is the bridge between the allocation core (internal/alloc) and
// the simulator: a RunnerProber turns search probes into Runner
// measurements — behind the content-addressed results cache, the
// singleflight collapse, and (when enabled) sampled simulation — plus the
// incremental counterparts of the batch table drivers and the churn
// scenario used by cmd/market and the recorded benchmarks.

// RunnerProber adapts a Runner to market.Prober/market.PhaseProber.
// Performance is IPC, the same figure of merit the grid sweeps feed the
// economic model.
type RunnerProber struct {
	R *Runner
}

// Probe implements market.Prober.
func (p RunnerProber) Probe(bench string, cfg econ.Config) (float64, error) {
	m, err := p.R.Measure(bench, cfg)
	if err != nil {
		return 0, err
	}
	return m.IPC(), nil
}

// ProbePhase implements market.PhaseProber.
func (p RunnerProber) ProbePhase(bench string, phase int, cfg econ.Config) (float64, error) {
	m, err := p.R.MeasurePhase(bench, phase, cfg)
	if err != nil {
		return 0, err
	}
	return m.IPC(), nil
}

// NewAllocator builds an allocator (internal/alloc) over the standard
// lattice, probing through r. A zero supply makes a pricing-only allocator
// (the table drivers).
func NewAllocator(r *Runner, supply econ.Supply) (*alloc.Allocator, error) {
	return alloc.New(alloc.Params{
		Slices:  StdSlices,
		CacheKB: StdCaches,
		Supply:  supply,
	}, RunnerProber{R: r})
}

// Table4Incremental reproduces Table 4 (perf^k/area optima) by incremental
// search: Metric under k equals Utility_k under area prices (Market2) up to
// the constant budget factor, with the same tie-break, so three bids per
// benchmark replace the 72-point sweep.
func Table4Incremental(r *Runner, names []string) ([]OptimaRow, alloc.Stats, error) {
	if len(names) == 0 {
		names = workload.Names()
	}
	names = append([]string(nil), names...)
	sort.Strings(names)
	a, err := NewAllocator(r, econ.Supply{})
	if err != nil {
		return nil, alloc.Stats{}, err
	}
	var rows []OptimaRow
	for _, b := range names {
		row := OptimaRow{Bench: b}
		for _, u := range econ.Utilities() {
			bid, err := a.PriceBid(b, u, econ.Market2())
			if err != nil {
				return nil, alloc.Stats{}, err
			}
			row.Best[u.K-1] = bid.Config
		}
		rows = append(rows, row)
	}
	return rows, a.Stats(), nil
}

// Table6Incremental reproduces Table 6 (per-market, per-utility optimal
// VCores) by pricing 9 bids per benchmark through the allocation core
// instead of sweeping 72-point grids. It returns the rows and the
// allocator's probe-economy statistics.
func Table6Incremental(r *Runner, names []string) ([]MarketOptimaRow, alloc.Stats, error) {
	if len(names) == 0 {
		names = workload.Names()
	}
	names = append([]string(nil), names...)
	sort.Strings(names)
	a, err := NewAllocator(r, econ.Supply{})
	if err != nil {
		return nil, alloc.Stats{}, err
	}
	var rows []MarketOptimaRow
	for _, b := range names {
		row := MarketOptimaRow{Bench: b}
		for mi, m := range econ.Markets() {
			for _, u := range econ.Utilities() {
				bid, err := a.PriceBid(b, u, m)
				if err != nil {
					return nil, alloc.Stats{}, err
				}
				row.Best[mi][u.K-1] = bid.Config
			}
		}
		rows = append(rows, row)
	}
	return rows, a.Stats(), nil
}

// IncrementalPhaseTable is one metric's dynamic schedule from the
// probe-driven analysis.
type IncrementalPhaseTable struct {
	K        int
	Schedule *econ.IncrementalPhaseSchedule
}

// Table7Incremental reproduces Table 7's dynamic schedules by warm-started
// per-phase search instead of ten full phase grids: phase p+1's search
// starts from phase p's optimum. The configurations and dynamic GMEs are
// identical to Table7's (the differential test pins this); only the static
// baseline — which inherently needs full grids — is omitted.
func Table7Incremental(r *Runner) ([]IncrementalPhaseTable, error) {
	prof, err := workload.Lookup("gcc")
	if err != nil {
		return nil, err
	}
	nPhases := prof.NumPhases()
	probe := func(phase int, cfg econ.Config) (uint64, int64, error) {
		m, err := r.MeasurePhase("gcc", phase, cfg)
		if err != nil {
			return 0, 0, err
		}
		ipc := m.IPC()
		if ipc <= 0 {
			return 0, 0, fmt.Errorf("experiments: gcc phase %d %v: non-positive IPC", phase, cfg)
		}
		// Derive cycles exactly as Table7 does from grid IPCs, so the two
		// paths compute bit-identical metrics.
		n := r.traceLen()
		return uint64(n), int64(float64(n) / ipc), nil
	}
	reconf := func(a, b econ.Config) int64 {
		return hypervisor.ReconfigCost(a.CacheKB, b.CacheKB, a.Slices, b.Slices)
	}
	var out []IncrementalPhaseTable
	for k := 1; k <= 3; k++ {
		sched, err := econ.IncrementalPhaseAnalysis(nPhases, k, StdSlices, StdCaches, econ.Config{}, probe, reconf)
		if err != nil {
			return nil, err
		}
		out = append(out, IncrementalPhaseTable{K: k, Schedule: sched})
	}
	return out, nil
}

// ChurnEvent is one step of a churn scenario, with its marginal cost.
type ChurnEvent struct {
	Action   string // "arrive", "depart", "phase"
	Customer string
	Bench    string
	K        int
	Phase    int
	// Probes and SimRuns are the marginal surface-cache misses and actual
	// simulator executions this event cost; Iterations is the tatonnement
	// round count of the re-clearing.
	Probes     int64
	SimRuns    int64
	Iterations int
	// TotalUtility is the market's total utility after the event.
	TotalUtility float64
}

// ChurnReport summarizes one churn scenario run.
type ChurnReport struct {
	Events []ChurnEvent
	Stats  alloc.Stats
	// SimRuns is the total simulator executions across the scenario;
	// GridSimRuns is what the batch path would have run for the same
	// surfaces (one full sweep each).
	SimRuns     int64
	GridSimRuns int
}

// ChurnScenario drives a deterministic arrival/departure/phase-change
// sequence over the named benchmarks through the allocation core, one op
// per epoch: every benchmark arrives as a customer (utilities rotating
// U1..U3), every second customer departs, the departed half re-arrives
// (riding the memoized surfaces), and — when gcc is among the benchmarks —
// its customer steps through two program phases to exercise per-phase
// reconfiguration.
func ChurnScenario(r *Runner, names []string, supply econ.Supply) (*ChurnReport, error) {
	if len(names) == 0 {
		names = workload.Names()
	}
	names = append([]string(nil), names...)
	sort.Strings(names)
	a, err := NewAllocator(r, supply)
	if err != nil {
		return nil, err
	}
	rep := &ChurnReport{}
	// record reports each event's marginal probe and simulator cost as the
	// delta against the previous event's cumulative counters.
	var cumProbes, cumRuns int64
	record := func(action, cust, bench string, k, phase int, rc alloc.Receipt, err error) error {
		if err != nil {
			return err
		}
		st := a.Stats()
		ev := ChurnEvent{
			Action: action, Customer: cust, Bench: bench, K: k, Phase: phase,
			Probes:  st.CacheMisses - cumProbes,
			SimRuns: r.SimRuns() - cumRuns,
		}
		cumProbes, cumRuns = st.CacheMisses, r.SimRuns()
		if rc.Result != nil {
			ev.Iterations = rc.Result.Iterations
			ev.TotalUtility = rc.Result.TotalUtility
		}
		rep.Events = append(rep.Events, ev)
		return nil
	}
	arrive := func(i int, b string) error {
		u := econ.Utilities()[i%3]
		cust := fmt.Sprintf("cust-%s", b)
		rc, err := a.Arrive(cust, b, u)
		return record("arrive", cust, b, u.K, alloc.WholeProgram, rc, err)
	}
	// Arrivals: one customer per benchmark, rotating utility families.
	for i, b := range names {
		if err := arrive(i, b); err != nil {
			return nil, err
		}
	}
	// Every second customer departs...
	for i, b := range names {
		if i%2 == 1 {
			continue
		}
		cust := fmt.Sprintf("cust-%s", b)
		rc, err := a.Depart(cust)
		if err := record("depart", cust, b, 0, alloc.WholeProgram, rc, err); err != nil {
			return nil, err
		}
	}
	// ...and returns: the warm half of the stream.
	for i, b := range names {
		if i%2 == 1 {
			continue
		}
		if err := arrive(i, b); err != nil {
			return nil, err
		}
	}
	// Phase churn on gcc, when present.
	if slices.Contains(names, "gcc") {
		for _, ph := range []int{0, 1} {
			rc, err := a.Reconfigure("cust-gcc", ph)
			if err := record("phase", "cust-gcc", "gcc", 0, ph, rc, err); err != nil {
				return nil, err
			}
		}
	}
	rep.Stats = a.Stats()
	rep.SimRuns = r.SimRuns()
	rep.GridSimRuns = rep.Stats.GridProbes
	return rep, nil
}
