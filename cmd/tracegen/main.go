// Command tracegen synthesizes a workload trace (the stand-in for the
// paper's GEM5 Alpha full-system traces) and prints its instruction mix,
// one trace.Measure line per thread. Traces are a pure function of
// (benchmark, phase, length, seed) and cheap to regenerate, so they are
// never stored: cmd/ssim and cmd/sweep generate their own.
//
// Usage:
//
//	tracegen -bench gcc -n 500000 -seed 1
//	tracegen -bench gcc -phase 3          # one phase only (gcc has 10)
package main

import (
	"flag"
	"fmt"
	"os"

	"sharing/internal/trace"
	"sharing/internal/workload"
)

func main() {
	var (
		bench = flag.String("bench", "gcc", "benchmark name")
		n     = flag.Int("n", 500000, "dynamic instructions per thread")
		seed  = flag.Int64("seed", 1, "generation seed")
		phase = flag.Int("phase", -1, "generate only this phase (0-based; gcc has 10)")
	)
	flag.Parse()

	prof, err := workload.Lookup(*bench)
	if err != nil {
		fatal(err)
	}
	var mt *trace.MultiTrace
	if *phase >= 0 {
		tr, err := prof.GeneratePhase(*phase, *n, *seed)
		if err != nil {
			fatal(err)
		}
		mt = trace.Single(tr)
	} else {
		mt, err = prof.Generate(*n, *seed)
		if err != nil {
			fatal(err)
		}
	}
	for ti, th := range mt.Threads {
		fmt.Printf("%s thread %d: %s\n", mt.Name, ti, trace.Measure(th))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
