// Webserver: a throughput-oriented IaaS customer (the paper's Apache
// scenario, §2.2). The customer has a fixed budget and is latency tolerant
// (Utility1 = v * P): it simply wants the most aggregate requests per second
// for the money, and must decide whether to buy many small VCores or fewer
// large ones -- a decision that flips with market prices.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"log"

	"sharing"
)

func main() {
	r := sharing.NewRunner()
	r.TraceLen = 60000

	fmt.Println("measuring apache on candidate VCore shapes...")
	surf, err := r.Grid("apache", []int{1, 2, 3, 4}, []int{0, 64, 128, 256, 512})
	if err != nil {
		log.Fatal(err)
	}

	u := sharing.Utility1()
	for _, market := range []sharing.Market{sharing.Market2(), sharing.Market1(), sharing.Market3()} {
		best, util := u.Best(market, surf)
		v := u.Budget / market.Cost(best)
		fmt.Printf("\n%s (Slice $%.1f, 64KB bank $%.1f):\n", market.Name, market.SliceCost, market.BankCost)
		fmt.Printf("  best buy: %d Slices + %d KB per VCore\n", best.Slices, best.CacheKB)
		fmt.Printf("  the budget rents %.1f such VCores; total utility %.2f\n", v, util)
	}

	fmt.Println("\nWhen Slices become expensive (Market1) the throughput customer shifts")
	fmt.Println("toward cache; when cache is expensive (Market3) it buys lean VCores.")
	fmt.Println("A fixed-core cloud cannot express either move.")
}
