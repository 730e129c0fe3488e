package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"sharing/internal/econ"
	"sharing/internal/experiments"
	"sharing/internal/workload"
)

// The sweep workload: an exact-mode grid through experiments.Runner.Grid on
// the default in-process backend, results and trace caches cold. mcf is
// memory-bound, gobmk compute-bound, libquantum streaming and dedup
// multithreaded (the multi-engine quantum loop); the cache axis straddles
// their working sets.
var (
	sweepBenches = []string{"mcf", "gobmk", "libquantum", "dedup"}
	sweepSlices  = []int{1, 2, 4, 8}
	sweepCaches  = []int{0, 128, 512, 2048}
)

const (
	sweepTraceLen = 50_000 // instructions per thread
	sweepWorkers  = 2      // Runner.Workers
	sweepPoints   = 4 * 4 * 4
)

// sweepSeed is the workload-generation seed of an input variant.
func sweepSeed(variant int) int64 { return experiments.DefaultSeed + int64(variant) }

// newSweepRunner builds the runner one grid uses: nothing cached yet.
func newSweepRunner(variant, workers int) *experiments.Runner {
	r := experiments.NewRunner()
	r.TraceLen, r.Seed, r.Workers = sweepTraceLen, sweepSeed(variant), workers
	return r
}

// sweepGrid measures the lattice for every benchmark and returns the digest
// of (bench, cfg, cycles, insts) over all points and the instructions
// simulated.
func sweepGrid(r *experiments.Runner) (digest string, insts uint64, err error) {
	h := sha256.New()
	for _, bench := range sweepBenches {
		if _, err := r.Grid(bench, sweepSlices, sweepCaches); err != nil {
			return "", 0, err
		}
		for _, s := range sweepSlices {
			for _, c := range sweepCaches {
				// A cache hit: Grid has just measured this point.
				m, err := r.Measure(bench, econ.Config{Slices: s, CacheKB: c})
				if err != nil {
					return "", 0, err
				}
				fmt.Fprintf(h, "%s %d %d %d %d\n", bench, s, c, m.Cycles, m.Insts)
				insts += m.Insts
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), insts, nil
}

func runSweep(b *bench) error {
	v := b.variant()
	want := expected().Sweep[fmt.Sprint(v)]

	// Set-up is what a sweep needs before its first simulation: a runner
	// and the benchmarks' generated traces.
	var setups []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		newSweepRunner(v, sweepWorkers)
		for _, name := range sweepBenches {
			prof, err := workload.Lookup(name)
			if err != nil {
				return err
			}
			if _, err := prof.Generate(sweepTraceLen, sweepSeed(v)); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.set(mSetup, "s", median(setups))
	b.printf("setup: runner + traces of %d benchmarks at n=%d, median of %d: %.4f s", len(sweepBenches), sweepTraceLen, len(setups), median(setups))

	// Whole cold grids while the next one is expected to fit the window.
	var rates, grids []float64
	start := time.Now()
	for len(grids) == 0 || time.Since(start)+time.Duration(median(grids)*float64(time.Millisecond)) <= b.window {
		runtime.GC()
		r := newSweepRunner(v, sweepWorkers)
		t0 := time.Now()
		digest, insts, err := sweepGrid(r)
		dur := time.Since(t0)
		b.ops(sweepPoints)
		switch {
		case err != nil:
			b.fail(sweepPoints, "grid: %v", err)
			return nil
		case digest != want:
			b.fail(sweepPoints, "grid digest %s, recorded %s (variant %d)", digest, want, v)
		case r.SimRuns() != sweepPoints:
			b.fail(1, "runner dispatched %d simulations for %d points", r.SimRuns(), sweepPoints)
		}
		rates = append(rates, float64(insts)/dur.Seconds())
		grids = append(grids, ms(dur))
		b.printf("grid %d: %d points, %d insts in %.3f s = %.4f Minsts/s", len(grids), sweepPoints, insts, dur.Seconds(), float64(insts)/dur.Seconds()/1e6)
	}
	rss, err := vmHWM("self")
	if err != nil {
		return err
	}
	b.printf("sim_minsts_per_s = %.4f Minsts/s (median of %d cold grids, Workers=%d); grid time %s",
		median(rates)/1e6, len(rates), sweepWorkers, summarize(grids).String("ms"))
	b.set(mRate, "1/s", median(rates))
	b.set(mP50, "ms", median(grids))
	b.set(mRSS, "MB", rss)
	return nil
}
