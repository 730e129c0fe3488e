// Command market regenerates the economic-model experiments: Table 4
// (perf^k/area optima), Table 5 (utility definitions), Table 6 (optima per
// utility per market), Fig. 14 (utility surfaces), Fig. 15 (gain vs the best
// static fixed architecture), Fig. 16 (gain vs a heterogeneous machine), and
// Fig. 17 (datacenter big/small-core mixes).
//
// Every table and figure is an optimum over measured Slice x L2 grids.
// -churn instead runs an arrival/departure/phase-change scenario through the
// allocation core (internal/alloc), which prices each bid by incremental
// search, and reports the marginal probe cost of every event.
//
// Usage:
//
//	market -exp table4 -results results/perf.json
//	market -exp fig15  -results results/perf.json
//	market -churn -bench gcc,mcf,sjeng
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"sharing/internal/econ"
	"sharing/internal/experiments"
	"sharing/internal/plot"
)

func main() {
	var (
		exp     = flag.String("exp", "table4", "table4|table5|table6|fig14|fig15|fig16|fig17")
		benches = flag.String("bench", "", "comma-separated benchmarks (default: all)")
		n       = flag.Int("n", experiments.DefaultTraceLen, "instructions per thread")
		seed    = flag.Int64("seed", experiments.DefaultSeed, "workload seed")
		results = flag.String("results", "", "JSON results cache (reused across runs)")
		resume  = flag.Bool("resume", false, "resume an interrupted run from the -results checkpoint journal")
		quiet   = flag.Bool("q", false, "suppress per-run progress")
		churn   = flag.Bool("churn", false, "run the churn scenario through the allocation core and report per-event costs")
	)
	flag.Parse()

	if *resume && *results == "" {
		fatal(errors.New("-resume needs -results: the checkpoint journal lives next to the results cache"))
	}

	r := experiments.NewRunner()
	r.TraceLen, r.Seed, r.ResultsPath = *n, *seed, *results
	if !*quiet {
		r.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if err := r.Load(); err != nil {
		fatal(err)
	}
	if *resume {
		fmt.Fprintf(os.Stderr, "market: recovered %d checkpointed measurements\n", r.Recovered())
	}

	// Ctrl-C drains instead of killing: stop dispatching new simulations,
	// let in-flight ones finish and journal, then save and point at -resume.
	// A second Ctrl-C falls through to the default hard kill — same contract
	// as cmd/sweep.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "market: interrupt - draining in-flight simulations (Ctrl-C again to kill)")
		r.Stop()
		signal.Stop(sigs)
	}()
	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	if *churn {
		rep, err := experiments.ChurnScenario(r, names)
		if err != nil {
			stopOrFatal(r, err)
		}
		var out [][]string
		for _, ev := range rep.Events {
			target := ev.Bench
			if ev.Action == "phase" {
				target = fmt.Sprintf("%s/ph%d", ev.Bench, ev.Phase)
			}
			ratio := "-"
			if ev.Prices.SliceCost > 0 {
				ratio = fmt.Sprintf("%.3g", ev.Prices.BankCost/ev.Prices.SliceCost)
			}
			out = append(out, []string{
				ev.Action, ev.Customer, target,
				fmt.Sprintf("%d", ev.Probes), fmt.Sprintf("%d", ev.SimRuns),
				fmt.Sprintf("%d", ev.Iterations), ratio, fmt.Sprintf("%.3f", ev.TotalUtility),
			})
		}
		fmt.Print(experiments.RenderSeries(
			"Churn scenario - marginal cost per market event (incremental search)",
			[]string{"event", "customer", "target", "probes", "simruns", "evals", "bank/slice", "totalU"}, out))
		fmt.Printf("total: %d simulator runs vs %d for per-event grid recomputation (%d surfaces x %d points); %d re-auctions\n",
			rep.SimRuns, rep.GridSimRuns, rep.Stats.Surfaces, rep.GridSimRuns/max(rep.Stats.Surfaces, 1), rep.Stats.Epochs)
		if err := r.Save(); err != nil {
			fatal(err)
		}
		return
	}

	switch *exp {
	case "table5":
		fmt.Println("Table 5 - customer utility functions (B = budget, P = single-thread perf,")
		fmt.Println("v = B/(Cc*c + Cs*s) VCores affordable):")
		fmt.Println("  Utility1 (latency-tolerant): U = v * P      (throughput)")
		fmt.Println("  Utility2:                    U = v * P^2")
		fmt.Println("  Utility3 (OLDI):             U = v * P^3    (single-stream)")
		return
	case "table4":
		rows, _, err := experiments.Table4(r, names)
		if err != nil {
			stopOrFatal(r, err)
		}
		var out [][]string
		for _, row := range rows {
			out = append(out, []string{row.Bench, row.Best[0].String(), row.Best[1].String(), row.Best[2].String()})
		}
		fmt.Print(experiments.RenderSeries(
			"Table 4 - optimal (L2 KB, Slices) per performance-area metric",
			[]string{"benchmark", "perf/area", "perf^2/area", "perf^3/area"}, out))
	case "table6":
		_, suite, err := experiments.Table4(r, names)
		if err != nil {
			stopOrFatal(r, err)
		}
		rows := experiments.Table6(suite)
		header := []string{"benchmark"}
		for _, m := range econ.Markets() {
			for k := 1; k <= 3; k++ {
				header = append(header, fmt.Sprintf("%s/U%d", m.Name, k))
			}
		}
		var out [][]string
		for _, row := range rows {
			line := []string{row.Bench}
			for mi := range econ.Markets() {
				for k := 0; k < 3; k++ {
					line = append(line, row.Best[mi][k].String())
				}
			}
			out = append(out, line)
		}
		fmt.Print(experiments.RenderSeries(
			"Table 6 - optimal VCore configurations in different markets (L2 KB, Slices)",
			header, out))
	case "fig14":
		if len(names) == 0 {
			names = []string{"gcc", "bzip"}
		}
		surfs, err := experiments.Fig14(r, names, []int{1, 2})
		if err != nil {
			stopOrFatal(r, err)
		}
		for _, s := range surfs {
			fmt.Printf("Fig. 14 - %s Utility%d (rows: log2 banks, cols: slices; 0-9 = utility/max)\n", s.Bench, s.K)
			for bi := len(s.BankL2) - 1; bi >= 0; bi-- {
				label := "none"
				if s.BankL2[bi] >= 0 {
					label = fmt.Sprintf("2^%d", s.BankL2[bi])
				}
				fmt.Printf("  %5s |", label)
				for si := range s.Slices {
					fmt.Printf(" %d", int(s.U[bi][si]*9.999))
				}
				fmt.Println()
			}
			fmt.Printf("        +%s\n         ", strings.Repeat("--", len(s.Slices)))
			for _, sl := range s.Slices {
				fmt.Printf(" %d", sl)
			}
			fmt.Println()
		}
	case "fig15", "fig16":
		_, suite, err := experiments.Table4(r, names)
		if err != nil {
			stopOrFatal(r, err)
		}
		var gains []econ.PairGain
		if *exp == "fig15" {
			var fixed econ.Config
			gains, fixed, err = experiments.Fig15(suite)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("Fig. 15 - utility gain vs best static fixed architecture %v (Market2)\n", fixed)
		} else {
			var perU map[int]econ.Config
			gains, perU, err = experiments.Fig16(suite)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("Fig. 16 - utility gain vs heterogeneous per-utility cores U1=%v U2=%v U3=%v\n",
				perU[1], perU[2], perU[3])
		}
		st := econ.Summarize(gains)
		fmt.Printf("  %d permutation points: max %.2fx, mean %.2fx, gmean %.2fx, %.0f%% above 1x, %.0f%% above 2x\n",
			st.Points, st.Max, st.Mean, st.GMean, 100*st.FracAbove1, 100*st.FracAbove2)
		experiments.SortPairGains(gains)
		fmt.Println("  top pairs:")
		for i, g := range gains {
			if i >= 10 {
				break
			}
			fmt.Printf("    %5.2fx  %s(U%d) + %s(U%d)\n", g.Gain, g.B1, g.K1, g.B2, g.K2)
		}
		vals := make([]float64, 0, len(gains))
		for _, g := range gains {
			vals = append(vals, g.Gain)
		}
		fmt.Println()
		fmt.Print(plot.Histogram("  gain distribution (x = utility gain over fixed)", vals, 12, 50))
	case "fig17":
		points, big, small, err := experiments.Fig17(r)
		if err != nil {
			stopOrFatal(r, err)
		}
		fmt.Printf("Fig. 17 - datacenter utility vs big-core area fraction (big = %v,\n", big.Cfg)
		fmt.Printf("small = %v); application mix = fraction of hmmer jobs\n", small.Cfg)
		byMix := map[float64][]econ.MixPoint{}
		var mixes []float64
		for _, p := range points {
			if _, ok := byMix[p.AppFracA]; !ok {
				mixes = append(mixes, p.AppFracA)
			}
			byMix[p.AppFracA] = append(byMix[p.AppFracA], p)
		}
		for _, mix := range mixes {
			fmt.Printf("  hmmer=%.0f%%:", 100*mix)
			for _, p := range byMix[mix] {
				fmt.Printf("  %.3f", p.Utility)
			}
			fmt.Println()
		}
		opt := econ.OptimalBigFrac(points)
		fmt.Println("  optimal big-core fraction per mix:")
		for _, mix := range mixes {
			fmt.Printf("    hmmer=%.0f%% -> big=%.1f%%\n", 100*mix, 100*opt[mix])
		}
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if err := r.Save(); err != nil {
		fatal(err)
	}
}

// stopOrFatal handles an experiment error. A graceful interrupt (the
// Ctrl-C drain) saves every completed measurement and exits 130 with a
// -resume hint; any other error is fatal.
func stopOrFatal(r *experiments.Runner, err error) {
	if !errors.Is(err, experiments.ErrStopped) {
		fatal(err)
	}
	if err := r.Save(); err != nil {
		fmt.Fprintln(os.Stderr, "market: saving after interrupt:", err)
	}
	fmt.Fprintf(os.Stderr, "market: interrupted after %d simulations; completed measurements saved - rerun with -resume to continue\n", r.SimRuns())
	os.Exit(130)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "market:", err)
	os.Exit(1)
}
