// Command ssim runs one SSim simulation: a benchmark trace on a chosen
// VCore configuration, reporting cycles, IPC, miss rates and the stall
// taxonomy. Parameters come from flags or from an XML configuration file
// (-config), matching the paper's description of SSim (§5.2).
//
// Usage:
//
//	ssim -bench omnetpp -slices 4 -cacheKB 1024 -n 200000
//	ssim -config myrun.xml
//	ssim -dump-config > base.xml
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"sharing/internal/sim"
	"sharing/internal/workload"
)

func main() {
	var (
		configPath = flag.String("config", "", "XML configuration file (overrides other flags)")
		dump       = flag.Bool("dump-config", false, "print the base configuration (Tables 2/3) as XML and exit")
		bench      = flag.String("bench", "gcc", "benchmark name (see -list)")
		list       = flag.Bool("list", false, "list available benchmarks and exit")
		slices     = flag.Int("slices", 2, "Slices per VCore (1-8)")
		cacheKB    = flag.Int("cacheKB", 128, "total L2 cache in KB (multiple of 64)")
		n          = flag.Int("n", 200000, "dynamic instructions per thread")
		seed       = flag.Int64("seed", 1, "workload generation seed")
		verbose    = flag.Bool("v", false, "print per-VCore details")
		strict     = flag.Bool("strict", false, "use the strict per-cycle loop instead of event-driven cycle skipping (slow; results identical)")
		quantum    = flag.Int("quantum", 0, "synchronization quantum in cycles for multi-engine machines (0 = NoC lookahead; larger values are clamped to it)")
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

	if *list {
		for _, b := range workload.Names() {
			fmt.Println(b)
		}
		return
	}
	if *dump {
		if err := sim.WriteConfig(os.Stdout, sim.DefaultXMLConfig()); err != nil {
			fatal(err)
		}
		return
	}

	cfg := sim.DefaultXMLConfig()
	cfg.Benchmark, cfg.Slices, cfg.CacheKB = *bench, *slices, *cacheKB
	cfg.Instructions, cfg.Seed = *n, *seed
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fatal(err)
		}
		cfg, err = sim.ParseConfig(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	params, err := cfg.Params()
	if err != nil {
		fatal(err)
	}
	params.StrictTick = *strict
	params.Quantum = *quantum
	prof, err := workload.Lookup(cfg.Benchmark)
	if err != nil {
		fatal(err)
	}
	insts := cfg.Instructions
	if insts <= 0 {
		insts = 200000
	}
	mt, err := prof.Generate(insts, cfg.Seed)
	if err != nil {
		fatal(err)
	}
	res, err := sim.Run(params, mt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchmark   %s (%d threads)\n", cfg.Benchmark, len(mt.Threads))
	fmt.Printf("vcore       %d slices, %d KB L2\n", params.VCore.NumSlices, params.CacheKB)
	fmt.Printf("cycles      %d\n", res.Cycles)
	fmt.Printf("insts       %d\n", res.Instructions)
	fmt.Printf("ipc         %.4f\n", res.IPC())
	fmt.Printf("l2          %d hits, %d misses\n", res.L2Hits, res.L2Misses)
	fmt.Printf("memory      %d reads, %d writes\n", res.MemReads, res.MemWrites)
	fmt.Printf("operand net %d msgs (%d stall cycles)\n", res.OpNet.Messages, res.OpNet.StallCycles)
	fmt.Printf("port meters %d aliases\n", res.MeterAliases)
	if res.Invalidations > 0 {
		fmt.Printf("coherence   %d invalidations\n", res.Invalidations)
	}
	if len(res.VCores) > 1 {
		agg := res.AggregateVCore()
		fmt.Printf("vm total    %s\n", agg.String())
	}
	for i, v := range res.VCores {
		if !*verbose && i > 0 {
			break
		}
		fmt.Printf("vcore[%d]    %s\n", i, v.String())
		if *verbose {
			fmt.Printf("  stalls: branch=%d icache=%d buf=%d bubble=%d rename=%d storebuf=%d barrier=%d\n",
				v.FetchStallBranch, v.FetchStallICache, v.FetchStallBuf, v.FetchStallBubble,
				v.RenameStallWindow, v.CommitStallStoreB, v.BarrierWaits)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssim:", err)
	os.Exit(1)
}
