// Command phases regenerates Table 7: gcc split into ten phases, each
// simulated independently across the configuration grid; per-phase optimal
// VCore configurations per perf^k/area metric, and the dynamic-vs-static
// gain including the hypervisor's reconfiguration costs (10,000 cycles for
// an L2 change, 500 for a Slice-only change).
//
// Ctrl-C drains: simulations in flight finish and are checkpointed next to
// -results, and rerunning the same command re-executes none of them.
package main

import (
	"flag"
	"fmt"
	"os"

	"sharing/internal/autotuner"
	"sharing/internal/econ"
	"sharing/internal/experiments"
)

func main() {
	var (
		n        = flag.Int("n", experiments.DefaultTraceLen, "instructions per phase")
		seed     = flag.Int64("seed", experiments.DefaultSeed, "workload seed")
		results  = flag.String("results", "", "JSON results cache (reused across runs)")
		quiet    = flag.Bool("q", false, "suppress per-run progress")
		autotune = flag.Bool("autotune", false, "also run the §4 heartbeat auto-tuner and compare with the oracle")
	)
	flag.Parse()

	r, err := experiments.Open("phases", *n, *seed, *results, *quiet)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phases:", err)
		os.Exit(1)
	}
	os.Exit(r.End(run(r, *autotune)))
}

// run measures and prints Table 7 and, with autotune, the auto-tuner's
// comparison against it.
func run(r *experiments.Runner, autotune bool) error {
	tables, err := experiments.Table7(r)
	if err != nil {
		return err
	}
	fmt.Println("Table 7 - optimal VCore configurations for the 10 gcc phases")
	for _, t := range tables {
		s := t.Schedule
		fmt.Printf("\nperf^%d/area:\n  phase:    ", t.K)
		for i := range s.PerPhase {
			fmt.Printf("%8d", i+1)
		}
		fmt.Printf("\n  L2 (KB):  ")
		for _, c := range s.PerPhase {
			fmt.Printf("%8d", c.CacheKB)
		}
		fmt.Printf("\n  Slices:   ")
		for _, c := range s.PerPhase {
			fmt.Printf("%8d", c.Slices)
		}
		fmt.Printf("\n  static best: %v\n", s.StaticBest)
		fmt.Printf("  dyn/static gain (with reconfig costs): %.1f%%\n", 100*s.Gain)
	}
	if autotune {
		return runAutotune(r, tables)
	}
	return nil
}

// runAutotune compares the online heartbeat auto-tuner against the oracle
// dynamic schedules of tables and the best static configuration.
func runAutotune(r *experiments.Runner, tables []experiments.PhaseTable) error {
	phases, err := experiments.GCCPhases(r)
	if err != nil {
		return err
	}
	fmt.Println("\nHeartbeat auto-tuner (§4) vs oracle, perf^k/area:")
	for _, t := range tables {
		sched, err := autotuner.Tune(phases, t.K, 0.05, econ.Config{Slices: 2, CacheKB: 128}, experiments.PhaseReconfigCost)
		if err != nil {
			return err
		}
		fmt.Printf("  k=%d: tuner GME %.4g (%d moves, %d probes) vs oracle %.4g, static %.4g\n",
			t.K, sched.GME, sched.Moves, sched.Probes, t.Schedule.DynGME, t.Schedule.StaticGME)
	}
	return nil
}
