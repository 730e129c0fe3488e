// Command fleet runs the datacenter simulator: a churning stream of
// VM bids priced in O(probes) through the allocation core's shared surfaces,
// placed onto thousands of simulated sharing-architecture chips, with
// per-Slice and per-L2-bank energy accounting.
//
// By default probes run the actual cycle-level simulator through the
// experiments Runner (with its results cache); -synthetic
// swaps in closed-form surfaces for mechanics-scale runs (thousands of
// machines, tens of thousands of events in seconds). A simulator-backed run
// drains on Ctrl-C and, rerun with the same flags, re-executes none of the
// simulations it completed. The K-type datacenter share sweep over the same
// surfaces is `market -exp fig17k`.
//
// Usage:
//
//	fleet -synthetic -machines 2000 -events 20000
//	fleet -machines 64 -events 500 -bench hmmer,gobmk -results results/perf.json
//	fleet -synthetic -objective perwatt -place packed -adaptive
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sharing/internal/experiments"
	"sharing/internal/fleet"
)

func main() {
	var (
		machines  = flag.Int("machines", 2000, "chips in the fleet")
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
		n         = flag.Int("n", experiments.DefaultTraceLen, "instructions per thread (simulator probes)")
		results   = flag.String("results", "", "JSON results cache (reused across runs)")
		quiet     = flag.Bool("q", false, "suppress per-run progress")
	)
	flag.Parse()

	if *synthetic && *results != "" {
		fatal(errors.New("-results needs simulator probes: -synthetic surfaces are closed-form and cache nothing"))
	}
	p := fleet.Params{
		Machines:       *machines,
		Events:         *events,
		ArrivalsPerSec: *rate,
		MeanLifetime:   *life,
		Epoch:          *epoch,
		Seed:           *seed,
		Benches:        strings.Split(*benches, ","),
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

	if *synthetic {
		f, err := fleet.New(p, fleet.SyntheticProber{})
		if err == nil {
			err = run(f, *finger)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	r, err := experiments.Open("fleet", *n, 0, *results, *quiet)
	if err != nil {
		fatal(err)
	}
	f, err := experiments.NewFleet(r, p)
	if err == nil {
		err = run(f, *finger)
	}
	os.Exit(r.End(err))
}

// run simulates the fleet and prints its report, its event rate and, with
// finger, its determinism fingerprint.
func run(f *fleet.Fleet, finger bool) error {
	//ssim:nolint detrand: wall-clock here only times the run for the events/s banner; it never feeds results
	start := time.Now()
	rep, err := f.Run()
	if err != nil {
		return err
	}
	//ssim:nolint detrand: wall-clock here only times the run for the events/s banner; it never feeds results
	wall := time.Since(start)
	fmt.Print(rep.String())
	fmt.Printf("wall: %.3fs (%.0f events/s)\n", wall.Seconds(), float64(rep.Events)/wall.Seconds())
	if finger {
		fmt.Print(rep.Fingerprint())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleet:", err)
	os.Exit(1)
}
