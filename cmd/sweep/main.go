// Command sweep regenerates the performance-scaling figures of the paper:
// Fig. 12 (VCore performance vs Slice count, normalized to one Slice with
// 128 KB of L2) and Fig. 13 (performance vs L2 size at two Slices,
// normalized to no L2).
//
// Usage:
//
//	sweep -exp fig12 -results results/perf.json
//	sweep -exp fig13 -bench omnetpp,mcf -n 500000
//
// A run killed mid-sweep (including Ctrl-C, which drains gracefully) loses
// nothing: completed measurements are checkpointed next to -results, and
// rerunning the same command re-executes zero of them.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sharing/internal/experiments"
	"sharing/internal/plot"
)

func main() { os.Exit(sweep()) }

// sweep runs the command and returns its exit status, so that the profiles
// deferred here are written before the process exits.
func sweep() int {
	var (
		exp        = flag.String("exp", "fig12", "experiment: fig12 or fig13")
		benches    = flag.String("bench", "", "comma-separated benchmarks (default: all)")
		n          = flag.Int("n", experiments.DefaultTraceLen, "instructions per thread")
		seed       = flag.Int64("seed", experiments.DefaultSeed, "workload seed")
		results    = flag.String("results", "", "JSON results cache (reused across runs)")
		jobs       = flag.Int("jobs", 0, "concurrent simulations (0 = NumCPU)")
		quantum    = flag.Int("quantum", 0, "synchronization quantum in cycles for multi-engine machines (0 = NoC lookahead; larger values are clamped to it)")
		quiet      = flag.Bool("q", false, "suppress per-run progress")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

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

	r, err := experiments.Open("sweep", *n, *seed, *results, *quiet)
	if err != nil {
		fatal(err)
	}
	r.Workers = *jobs
	r.MachineQuantum = *quantum
	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}
	return r.End(run(r, *exp, names))
}

// run measures and prints the figure exp over the benchmarks names: a table
// of each benchmark's speedups, then the same series as a line chart.
func run(r *experiments.Runner, exp string, names []string) error {
	var (
		title, col, xlabel string
		xs                 []int
		series             []plot.Series
	)
	switch exp {
	case "fig12":
		data, err := experiments.Fig12(r, names)
		if err != nil {
			return err
		}
		for _, d := range data {
			series = append(series, plot.Series{Name: d.Bench, Points: d.Speedup})
		}
		title, col, xlabel, xs = "Fig. 12 - VCore performance vs Slice count (128KB L2, normalized to 1 Slice)", "s=%d", "Slices", experiments.StdSlices
	case "fig13":
		data, err := experiments.Fig13(r, names)
		if err != nil {
			return err
		}
		for _, d := range data {
			series = append(series, plot.Series{Name: d.Bench, Points: d.Speedup})
		}
		title, col, xlabel, xs = "Fig. 13 - performance vs L2 size (2 Slices, normalized to 0KB)", "%dKB", "L2 KB", experiments.StdCaches
	default:
		return fmt.Errorf("unknown experiment %q (want fig12 or fig13)", exp)
	}
	header := []string{"benchmark"}
	var ticks []string
	for _, x := range xs {
		header = append(header, fmt.Sprintf(col, x))
		ticks = append(ticks, fmt.Sprintf("%d", x))
	}
	var rows [][]string
	for _, s := range series {
		row := []string{s.Name}
		for _, v := range s.Points {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		rows = append(rows, row)
	}
	fmt.Print(experiments.RenderSeries(title, header, rows))
	fmt.Println()
	fmt.Print(plot.Lines(plot.Chart{XTicks: ticks, XLabel: xlabel, YLabel: "speedup", Width: 72, Height: 18}, series))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
