// Command fleet runs the sharded datacenter simulator: a churning stream of
// VM bids priced in O(probes) through the allocation core's shared surfaces,
// placed onto thousands of simulated sharing-architecture chips, with
// per-Slice and per-L2-bank energy accounting.
//
// By default probes run the actual cycle-level simulator through the
// experiments Runner (with its results cache and sampled mode); -synthetic
// swaps in closed-form surfaces for mechanics-scale runs (thousands of
// machines, tens of thousands of events in seconds).
//
// Usage:
//
//	fleet -synthetic -machines 2000 -events 20000 -shards 4
//	fleet -machines 64 -events 500 -bench hmmer,gobmk -results results/perf.json
//	fleet -synthetic -objective perwatt -place packed -adaptive
//	fleet -fig17k -bench hmmer,gobmk,mcf -results results/perf.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"sharing/internal/experiments"
	"sharing/internal/fleet"
)

func main() {
	var (
		machines  = flag.Int("machines", 2000, "chips in the fleet")
		shards    = flag.Int("shards", 4, "parallel shards (results are byte-identical for any value)")
		events    = flag.Int("events", 20000, "VM lifecycle events (arrivals + departures)")
		rate      = flag.Float64("rate", 500, "mean VM arrivals per simulated second")
		life      = flag.Float64("life", 10, "mean VM lifetime in simulated seconds")
		epoch     = flag.Float64("epoch", 1, "simulated seconds per pricing/placement epoch")
		seed      = flag.Uint64("seed", 7, "event-stream seed")
		benches   = flag.String("bench", "hmmer,gobmk,mcf,sjeng,astar,bzip", "comma-separated benchmarks bids draw from")
		objective = flag.String("objective", "utility", "pricing objective: utility|perwatt")
		place     = flag.String("place", "packed", "placement policy: packed|spread")
		adaptive  = flag.Bool("adaptive", false, "ratchet prices each epoch by fleet utilization")
		synthetic = flag.Bool("synthetic", false, "closed-form surfaces instead of simulator probes")
		finger    = flag.Bool("fingerprint", false, "print the canonical determinism fingerprint")
		fig17k    = flag.Bool("fig17k", false, "run the K-type datacenter share sweep instead of the event simulation")
		steps     = flag.Int("steps", 4, "share-simplex granularity for -fig17k")
		n         = flag.Int("n", experiments.DefaultTraceLen, "instructions per thread (simulator probes)")
		results   = flag.String("results", "", "JSON results cache (reused across runs)")
		resume    = flag.Bool("resume", false, "resume an interrupted run from the -results checkpoint journal")
		quiet     = flag.Bool("q", false, "suppress per-run progress")
	)
	flag.Parse()

	if *resume && *results == "" {
		fatal(errors.New("-resume needs -results: the checkpoint journal lives next to the results cache"))
	}

	names := strings.Split(*benches, ",")

	if *fig17k {
		r := newRunner(*n, *results, *quiet, *resume)
		res, err := experiments.Fig17K(r, names, 2, *steps)
		if err != nil {
			stopOrFatal(r, err)
		}
		fmt.Printf("Fig. 17K - datacenter utility over %d-type area shares (perf^2/area optima):\n", len(res.Types))
		for _, ct := range res.Types {
			fmt.Printf("  type %-14s %v\n", ct.Name, ct.Cfg)
		}
		for _, p := range res.Best {
			fmt.Printf("  mix %v -> best shares %v  utility %.3f\n", p.JobFracs, p.Shares, p.Utility)
		}
		saveRunner(r)
		return
	}

	p := fleet.Params{
		Machines:       *machines,
		Shards:         *shards,
		Events:         *events,
		ArrivalsPerSec: *rate,
		MeanLifetime:   *life,
		Epoch:          *epoch,
		Seed:           *seed,
		Benches:        names,
		AdaptivePrices: *adaptive,
	}
	switch *objective {
	case "utility":
	case "perwatt":
		p.Objective = fleet.ObjUtilityPerWatt
	default:
		fatal(fmt.Errorf("unknown objective %q", *objective))
	}
	switch *place {
	case "packed":
	case "spread":
		p.Place = fleet.PlaceSpread
	default:
		fatal(fmt.Errorf("unknown placement %q", *place))
	}

	var (
		f   *fleet.Fleet
		r   *experiments.Runner
		err error
	)
	if *synthetic {
		f, err = fleet.New(p, fleet.SyntheticProber{})
	} else {
		r = newRunner(*n, *results, *quiet, *resume)
		f, err = experiments.NewFleet(r, p)
	}
	if err != nil {
		fatal(err)
	}
	//ssim:nolint detrand: wall-clock here only times the run for the events/s banner; it never feeds results
	start := time.Now()
	rep, err := f.Run()
	if err != nil {
		stopOrFatal(r, err)
	}
	//ssim:nolint detrand: wall-clock here only times the run for the events/s banner; it never feeds results
	wall := time.Since(start)
	fmt.Print(rep.String())
	fmt.Printf("wall: %.3fs (%.0f events/s)\n", wall.Seconds(), float64(rep.Events)/wall.Seconds())
	if *finger {
		fmt.Print(rep.Fingerprint())
	}
	saveRunner(r)
}

func newRunner(n int, results string, quiet, resume bool) *experiments.Runner {
	r := experiments.NewRunner()
	r.TraceLen, r.ResultsPath = n, results
	if !quiet {
		r.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if err := r.Load(); err != nil {
		fatal(err)
	}
	if resume {
		fmt.Fprintf(os.Stderr, "fleet: recovered %d checkpointed measurements\n", r.Recovered())
	}
	// Ctrl-C drains instead of killing: stop dispatching new simulations,
	// let in-flight ones finish and journal, then save and point at -resume.
	// A second Ctrl-C falls through to the default hard kill — same contract
	// as cmd/sweep. (Synthetic runs have no runner and keep the default
	// kill: there is nothing to checkpoint.)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "fleet: interrupt - draining in-flight simulations (Ctrl-C again to kill)")
		r.Stop()
		signal.Stop(sigs)
	}()
	return r
}

// stopOrFatal handles an experiment error. A graceful interrupt (the
// Ctrl-C drain) saves every completed measurement and exits 130 with a
// -resume hint; any other error is fatal.
func stopOrFatal(r *experiments.Runner, err error) {
	if r == nil || !errors.Is(err, experiments.ErrStopped) {
		fatal(err)
	}
	if err := r.Save(); err != nil {
		fmt.Fprintln(os.Stderr, "fleet: saving after interrupt:", err)
	}
	fmt.Fprintf(os.Stderr, "fleet: interrupted after %d simulations; completed measurements saved - rerun with -resume to continue\n", r.SimRuns())
	os.Exit(130)
}

func saveRunner(r *experiments.Runner) {
	if r == nil {
		return
	}
	if err := r.Save(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleet:", err)
	os.Exit(1)
}
