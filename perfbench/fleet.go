package main

import (
	"fmt"
	"runtime"
	"time"

	"sharing/internal/fleet"
)

// The fleet workload: one datacenter simulation over closed-form surfaces,
// exercising the event stream, placement, energy accrual and the shard's
// market.Engine pricing.
func fleetParams(variant int) fleet.Params {
	return fleet.Params{
		Machines: 20_000,
		// One shard: with two, every epoch's pricing wakes the second
		// CPU, and on a shared host those wake-ups cost more than the
		// parallel pricing saves and swing from run to run. Results are
		// identical for any shard count.
		Shards:         1,
		Events:         1_000_000,
		ArrivalsPerSec: 10_000,
		MeanLifetime:   10,
		Seed:           uint64(1 + variant),
		Benches:        []string{"hmmer", "gobmk", "mcf", "sjeng", "astar", "bzip"},
		Place:          fleet.PlacePacked,
		AdaptivePrices: true,
	}
}

type fleetRun struct {
	setup, run time.Duration
	report     *fleet.Report
}

// runFleetOnce builds and runs one fleet of the given variant.
func runFleetOnce(variant int) (fleetRun, error) {
	var fr fleetRun
	t0 := time.Now()
	f, err := fleet.New(fleetParams(variant), fleet.SyntheticProber{})
	if err != nil {
		return fr, err
	}
	fr.setup = time.Since(t0)
	t1 := time.Now()
	fr.report, err = f.Run()
	fr.run = time.Since(t1)
	return fr, err
}

func fingerprintDigest(r *fleet.Report) string { return sha(r.Fingerprint()) }

func runFleet(b *bench) error {
	v := b.variant()
	want := expected().Fleet[fmt.Sprint(v)]
	var setups, runs, rates []float64
	start := time.Now()
	// At least three fleets, so set-up has a median; more while the next
	// is expected to fit the window.
	for len(runs) < 3 || time.Since(start)+time.Duration(median(runs)*float64(time.Millisecond)) <= b.window {
		// Each fleet starts from a collected heap, not the last one's garbage.
		runtime.GC()
		fr, err := runFleetOnce(v)
		events := int64(fleetParams(v).Events)
		b.ops(events)
		if err != nil {
			b.fail(events, "fleet: %v", err)
			return nil
		}
		if got := fingerprintDigest(fr.report); got != want {
			b.fail(events, "fleet fingerprint %s, recorded %s (variant %d):\n%s", got, want, v, fr.report.Fingerprint())
		}
		setups = append(setups, fr.setup.Seconds())
		runs = append(runs, ms(fr.run))
		rates = append(rates, float64(fr.report.Events)/fr.run.Seconds())
		b.printf("fleet %d: New %.4f s, Run %.4f s, %d events, %d epochs = %.0f events/s",
			len(runs), fr.setup.Seconds(), fr.run.Seconds(), fr.report.Events, fr.report.Epochs, rates[len(rates)-1])
	}
	rss, err := vmHWM("self")
	if err != nil {
		return err
	}
	b.printf("setup: fleet.New of %d machines, median of %d: %.4f s", fleetParams(v).Machines, len(setups), median(setups))
	b.printf("fleet_events_per_s = %.0f events/s (median of %d runs); run time %s", median(rates), len(rates), summarize(runs).String("ms"))
	b.set(mSetup, "s", median(setups))
	b.set(mRate, "1/s", median(rates))
	b.set(mP50, "ms", median(runs))
	b.set(mRSS, "MB", rss)
	return nil
}
