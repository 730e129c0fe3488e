// Command tracegen synthesizes workload traces (the stand-in for the
// paper's GEM5 Alpha full-system traces) and writes them in the binary STRC
// format. trace.Read decodes it; its readers are the experiments runner's
// trace cache (sweep -tracecache) and the codec tests. cmd/ssim takes no
// trace file: it generates its workload itself.
//
// Usage:
//
//	tracegen -bench gcc -n 500000 -seed 1 -o gcc.strc
//	tracegen -bench gcc -stats            # print mix statistics only
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
		out   = flag.String("o", "", "output file (default <bench>.strc)")
		stats = flag.Bool("stats", false, "print trace statistics instead of writing a file")
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
	if *stats {
		for ti, th := range mt.Threads {
			fmt.Printf("%s thread %d: %s\n", mt.Name, ti, trace.Measure(th))
		}
		return
	}
	path := *out
	if path == "" {
		path = *bench + ".strc"
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := trace.Write(f, mt); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d threads x %d insts)\n", path, len(mt.Threads), mt.Threads[0].Len())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
