// Datacenter: the paper's §5.9 comparison. A provider that builds a FIXED
// heterogeneous datacenter (a static ratio of big and small cores) must
// guess its future application mix; the Sharing Architecture re-synthesizes
// the core mix on demand. We sweep the hmmer:gobmk job mix and show the
// optimal big-core fraction moving with it.
//
//	go run ./examples/datacenter
package main

import (
	"fmt"
	"log"

	"sharing"
	"sharing/internal/econ"
)

func main() {
	r := sharing.NewRunner()
	r.TraceLen = 60000

	big, small := econ.BigCore(), econ.SmallCore()
	fmt.Printf("big core   = %d Slices + %dKB (gobmk's Utility2 peak)\n", big.Cfg.Slices, big.Cfg.CacheKB)
	fmt.Printf("small core = %d Slices + %dKB (hmmer's Utility2 peak)\n\n", small.Cfg.Slices, small.Cfg.CacheKB)

	// The lattice spanning both cores; its axes ascend.
	cfgs := []int{small.Cfg.Slices, big.Cfg.Slices}
	caches := []int{small.Cfg.CacheKB, big.Cfg.CacheKB}
	gh, err := r.Grid("hmmer", cfgs, caches)
	if err != nil {
		log.Fatal(err)
	}
	gg, err := r.Grid("gobmk", cfgs, caches)
	if err != nil {
		log.Fatal(err)
	}

	bigFracs := []float64{0, 0.25, 0.5, 0.75, 1}
	appFracs := []float64{0, 0.25, 0.5, 0.75, 1}
	points, err := econ.DatacenterMix(gh, gg, big, small, 2, bigFracs, appFracs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("datacenter utility per unit area (rows: hmmer job share, cols: big-core area share)")
	fmt.Print("          ")
	for _, bf := range bigFracs {
		fmt.Printf("  big=%3.0f%%", 100*bf)
	}
	fmt.Println()
	i := 0
	for _, af := range appFracs {
		fmt.Printf("hmmer=%3.0f%%", 100*af)
		for range bigFracs {
			fmt.Printf("  %8.3f", points[i].Utility)
			i++
		}
		fmt.Println()
	}

	opt := econ.OptimalBigFrac(points)
	fmt.Println("\noptimal static big-core share per mix:")
	for _, af := range appFracs {
		fmt.Printf("  hmmer=%3.0f%% -> %3.0f%% big cores\n", 100*af, 100*opt[af])
	}
	fmt.Println("\nNo single ratio is optimal for every mix; the Sharing Architecture")
	fmt.Println("simply re-composes Slices and banks as the mix drifts.")
}
