package experiments

import (
	"fmt"
	"slices"
	"sort"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/workload"
)

// This file is the bridge between the allocation core (internal/alloc) and
// the simulator: a RunnerProber turns search probes into Runner
// measurements — behind the content-addressed results cache, the
// singleflight collapse, and (when enabled) sampled simulation — plus the
// churn scenario that cmd/market -churn drives through the core. The
// paper's tables are optima over full grids (figures.go); they do not go
// through the core.

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
// lattice, probing through r. A zero supply makes a pricing-only allocator.
func NewAllocator(r *Runner, supply econ.Supply) (*alloc.Allocator, error) {
	return alloc.New(alloc.Params{
		Slices:  StdSlices,
		CacheKB: StdCaches,
		Supply:  supply,
	}, RunnerProber{R: r})
}

// ChurnEvent is one step of a churn scenario, with its marginal cost.
type ChurnEvent struct {
	Action   string // "arrive", "depart", "phase"
	Customer string
	Bench    string
	K        int
	Phase    int
	// Probes and SimRuns are the marginal surface-cache misses and actual
	// simulator executions this event cost; Iterations is the number of
	// demand evaluations the re-clearing made, and Prices its clearing
	// prices.
	Probes     int64
	SimRuns    int64
	Iterations int
	Prices     econ.Market
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
func ChurnScenario(r *Runner, names []string) (*ChurnReport, error) {
	if len(names) == 0 {
		names = workload.Names()
	}
	names = append([]string(nil), names...)
	sort.Strings(names)
	// Half a bank per Slice is less than gcc, mcf and sjeng each take when
	// banks are cheapest (about one per Slice), so banks bind and the
	// clearing prices them inside its ratio bracket.
	a, err := NewAllocator(r, econ.Supply{Slices: 64, Banks: 32})
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
			ev.Prices = rc.Result.Prices
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
