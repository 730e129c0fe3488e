// Command sweep regenerates the performance-scaling figures of the paper:
// Fig. 12 (VCore performance vs Slice count, normalized to one Slice with
// 128 KB of L2) and Fig. 13 (performance vs L2 size at two Slices,
// normalized to no L2).
//
// Usage:
//
//	sweep -exp fig12 -results results/perf.json
//	sweep -exp fig13 -bench omnetpp,mcf -n 500000
//	sweep -exp fig12 -backend procpool -shards 4 -results results/perf.json
//	sweep -exp fig12 -results results/perf.json -resume
//
// A run killed mid-sweep (including Ctrl-C, which drains gracefully) loses
// nothing: completed measurements are checkpointed next to -results, and a
// rerun with -resume re-executes zero of them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"sharing/internal/experiments"
	"sharing/internal/plot"
	"sharing/internal/sim"
)

func main() {
	experiments.MaybeWorker()
	var (
		exp        = flag.String("exp", "fig12", "experiment: fig12 or fig13")
		benches    = flag.String("bench", "", "comma-separated benchmarks (default: all)")
		n          = flag.Int("n", experiments.DefaultTraceLen, "instructions per thread")
		seed       = flag.Int64("seed", experiments.DefaultSeed, "workload seed")
		results    = flag.String("results", "", "JSON results cache (reused across runs)")
		sample     = flag.Bool("sample", false, "sampled execution: functional warming with periodic detailed windows (fast; IPC is a statistical estimate, cached separately from exact results)")
		sampleWin  = flag.Int("sample-window", 0, "sampled mode: instructions per detailed measurement window (0 = default)")
		samplePer  = flag.Int("sample-period", 0, "sampled mode: instructions per sampling period, one window each (0 = default)")
		sampleSeed = flag.Int64("sample-seed", 1, "sampled mode: seed deriving the window placement")
		jobs       = flag.Int("jobs", 0, "concurrent simulations (0 = NumCPU)")
		quantum    = flag.Int("quantum", 0, "synchronization quantum in cycles for multi-engine machines (0 = NoC lookahead; larger values are clamped to it)")
		backend    = flag.String("backend", "inproc", "execution backend: inproc (worker pool in this process) or procpool (worker subprocesses)")
		shards     = flag.Int("shards", 0, "procpool worker subprocess count (0 = default)")
		resume     = flag.Bool("resume", false, "resume an interrupted run from the -results checkpoint journal")
		quiet      = flag.Bool("q", false, "suppress per-run progress")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *resume && *results == "" {
		fatal(errors.New("-resume needs -results: the checkpoint journal lives next to the results cache"))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	r := experiments.NewRunner()
	r.TraceLen, r.Seed, r.ResultsPath = *n, *seed, *results
	if *sample {
		r.Sample = sim.SampleParams{
			Enabled:     true,
			WindowInsts: *sampleWin,
			PeriodInsts: *samplePer,
			Seed:        *sampleSeed,
		}
	}
	if !*quiet {
		r.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	be, err := experiments.NewBackend(*backend, *shards)
	if err != nil {
		fatal(err)
	}
	if be != nil {
		r.Backend = be
		defer be.Close()
	}
	if err := r.Load(); err != nil {
		fatal(err)
	}
	if *resume {
		fmt.Fprintf(os.Stderr, "sweep: recovered %d checkpointed measurements\n", r.Recovered())
	}

	// Ctrl-C drains instead of killing: stop dispatching new simulations,
	// let in-flight ones finish and journal, then save and point at -resume.
	// A second Ctrl-C falls through to the default hard kill.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "sweep: interrupt - draining in-flight simulations (Ctrl-C again to kill)")
		r.Stop()
		signal.Stop(sigs)
	}()

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}
	r.Workers = *jobs
	r.MachineQuantum = *quantum
	switch *exp {
	case "fig12":
		data, err := experiments.Fig12(r, names)
		if err != nil {
			stopOrFatal(r, err)
		}
		header := []string{"benchmark"}
		for _, s := range experiments.StdSlices {
			header = append(header, fmt.Sprintf("s=%d", s))
		}
		var rows [][]string
		for _, d := range data {
			row := []string{d.Bench}
			for _, v := range d.Speedup {
				row = append(row, fmt.Sprintf("%.2f", v))
			}
			rows = append(rows, row)
		}
		fmt.Print(experiments.RenderSeries(
			"Fig. 12 - VCore performance vs Slice count (128KB L2, normalized to 1 Slice)",
			header, rows))
		var ss []plot.Series
		var ticks []string
		for _, s := range experiments.StdSlices {
			ticks = append(ticks, fmt.Sprintf("%d", s))
		}
		for _, d := range data {
			ss = append(ss, plot.Series{Name: d.Bench, Points: d.Speedup})
		}
		fmt.Println()
		fmt.Print(plot.Lines(plot.Chart{XTicks: ticks, XLabel: "Slices", YLabel: "speedup", Width: 72, Height: 18}, ss))
	case "fig13":
		data, err := experiments.Fig13(r, names)
		if err != nil {
			stopOrFatal(r, err)
		}
		header := []string{"benchmark"}
		for _, c := range experiments.StdCaches {
			header = append(header, fmt.Sprintf("%dKB", c))
		}
		var rows [][]string
		for _, d := range data {
			row := []string{d.Bench}
			for _, v := range d.Speedup {
				row = append(row, fmt.Sprintf("%.2f", v))
			}
			rows = append(rows, row)
		}
		fmt.Print(experiments.RenderSeries(
			"Fig. 13 - performance vs L2 size (2 Slices, normalized to 0KB)",
			header, rows))
		var ss []plot.Series
		var ticks []string
		for _, c := range experiments.StdCaches {
			ticks = append(ticks, fmt.Sprintf("%d", c))
		}
		for _, d := range data {
			ss = append(ss, plot.Series{Name: d.Bench, Points: d.Speedup})
		}
		fmt.Println()
		fmt.Print(plot.Lines(plot.Chart{XTicks: ticks, XLabel: "L2 KB", YLabel: "speedup", Width: 72, Height: 18}, ss))
	default:
		fatal(fmt.Errorf("unknown experiment %q (want fig12 or fig13)", *exp))
	}
	if err := r.Save(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: executed %d simulations\n", r.SimRuns())
}

// stopOrFatal handles an experiment error. A graceful interrupt (the
// Ctrl-C drain) saves every completed measurement and exits 130 with a
// -resume hint; any other error is fatal.
func stopOrFatal(r *experiments.Runner, err error) {
	if !errors.Is(err, experiments.ErrStopped) {
		fatal(err)
	}
	if err := r.Save(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep: saving after interrupt:", err)
	}
	fmt.Fprintf(os.Stderr, "sweep: interrupted after %d simulations; completed measurements saved - rerun with -resume to continue\n", r.SimRuns())
	os.Exit(130)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
