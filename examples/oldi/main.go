// OLDI: an Online Data-Intensive customer (§5.6 of the paper) whose queries
// must finish in sub-second time, so utility goes with the CUBE of
// single-stream performance (Utility3 = v * P^3). This example plays the
// role of the "meta-program" the paper proposes a customer ship with their
// VM: given current market prices, it picks the VCore configuration to rent,
// and re-decides when prices change.
//
//	go run ./examples/oldi
package main

import (
	"fmt"
	"log"

	"sharing"
)

func main() {
	r := sharing.NewRunner()
	r.TraceLen = 60000

	// The customer profiles its own workload (an omnetpp-like event
	// processor) across configurations once, offline.
	fmt.Println("profiling the OLDI service across VCore shapes...")
	surf, err := r.Grid("omnetpp", []int{1, 2, 4, 6, 8}, []int{0, 128, 512, 1024, 2048, 4096})
	if err != nil {
		log.Fatal(err)
	}

	metaProgram := func(m sharing.Market) {
		u3 := sharing.Utility3()
		cfg, util := u3.Best(m, surf)
		perf, _ := surf.At(cfg)
		fmt.Printf("  under %s: rent %d Slices + %d KB  (P=%.3f IPC, U3=%.2f)\n",
			m.Name, cfg.Slices, cfg.CacheKB, perf, util)
		// Contrast with the throughput view of the same measurements.
		cfg1, _ := sharing.Utility1().Best(m, surf)
		if cfg1 != cfg {
			fmt.Printf("    (a throughput customer would instead rent %d Slices + %d KB)\n",
				cfg1.Slices, cfg1.CacheKB)
		}
	}

	fmt.Println("\nmarket opens at area prices:")
	metaProgram(sharing.Market2())
	fmt.Println("\nprice shock: Slice demand spikes (Market1):")
	metaProgram(sharing.Market1())
	fmt.Println("\nprice shock: cache demand spikes (Market3):")
	metaProgram(sharing.Market3())

	fmt.Println("\nThe same binary runs on every configuration (no recompilation);")
	fmt.Println("only the hypervisor's Slice/bank assignment changes.")
}
