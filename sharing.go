// Package sharing is the public API of this reproduction of "The Sharing
// Architecture: Sub-Core Configurability for IaaS Clouds" (Zhou & Wentzlaff,
// ASPLOS 2014).
//
// The Sharing Architecture replaces fixed cores with Virtual Cores (VCores)
// composed at run time from Slices (minimal out-of-order cores) and 64 KB L2
// cache banks on a 2-D switched fabric, and prices those resources in a
// fine-grain IaaS market. This module contains, under internal/, a complete
// cycle-level simulator of that fabric (SSim), a synthetic-workload
// generator standing in for the paper's GEM5 traces, the silicon area model,
// the economic model, and a harness reproducing every table and figure of
// the paper's evaluation. This package is the stable surface a downstream
// user imports:
//
//	mt, _ := sharing.GenerateTrace("omnetpp", 200000, 1)
//	res, _ := sharing.Simulate(sharing.SimConfig{Slices: 4, CacheKB: 1024}, mt)
//	fmt.Println(res.IPC())
//
// or, one level up, measure a performance surface over a configuration
// lattice (ascending Slice counts x ascending L2 sizes) and optimize a
// customer's utility over it:
//
//	r := sharing.NewRunner()
//	surf, _ := r.Grid("gcc", []int{1, 2, 4, 8}, []int{0, 128, 1024})
//	cfg, u := sharing.Utility2().Best(sharing.Market2(), surf)
package sharing

import (
	"sharing/internal/econ"
	"sharing/internal/experiments"
	"sharing/internal/sim"
	"sharing/internal/trace"
	"sharing/internal/workload"
)

// VCoreConfig is a Virtual Core configuration: a Slice count (1-8) and a
// total L2 allocation in KB (multiples of 64, up to 8 MB).
type VCoreConfig = econ.Config

// Market prices Slices and cache banks (see Market1/2/3).
type Market = econ.Market

// Utility is a customer utility function U_k = v * P^k (Table 5).
type Utility = econ.Utility

// Surface holds one benchmark's measured performance at every VCore
// configuration of a lattice; Surface.At reads one configuration.
type Surface = econ.Surface

// Suite maps benchmark names to their surfaces.
type Suite = econ.Suite

// Trace is a generated multi-threaded workload trace.
type Trace = trace.MultiTrace

// Result is a simulation outcome.
type Result = sim.Result

// Runner measures performance surfaces in parallel with memoization.
type Runner = experiments.Runner

// Markets of §5.7: Market2 prices at area cost; Market1 prices Slices at 4x
// equal-area; Market3 prices cache at 4x equal-area.
func Market1() Market { return econ.Market1() }
func Market2() Market { return econ.Market2() }
func Market3() Market { return econ.Market3() }

// Utility1 favours throughput (U = v*P); Utility2 and Utility3 weigh
// single-stream performance progressively more (v*P^2, v*P^3).
func Utility1() Utility { return econ.Utility1() }
func Utility2() Utility { return econ.Utility2() }
func Utility3() Utility { return econ.Utility3() }

// Benchmarks returns the names of the bundled synthetic workloads (Apache +
// SPEC CINT2006 subset + PARSEC subset, per the paper's evaluation).
func Benchmarks() []string { return workload.Names() }

// GenerateTrace synthesizes a deterministic, value-consistent trace of n
// instructions per thread for the named benchmark.
func GenerateTrace(benchmark string, n int, seed int64) (*Trace, error) {
	p, err := workload.Lookup(benchmark)
	if err != nil {
		return nil, err
	}
	return p.Generate(n, seed)
}

// SimConfig selects the simulated VCore shape and optional overrides.
type SimConfig struct {
	// Slices per VCore (one VCore is built per trace thread).
	Slices int
	// CacheKB is the VM's total L2 allocation.
	CacheKB int
	// OperandNetWidth overrides the Scalar Operand Network bandwidth
	// (messages per port per cycle); 0 means the paper's single network.
	OperandNetWidth int
}

// Simulate runs the cycle-level simulator on a trace and returns aggregate
// statistics (cycles, IPC, miss rates, network traffic, stall taxonomy).
func Simulate(cfg SimConfig, mt *Trace) (*Result, error) {
	p := sim.DefaultParams(cfg.Slices, cfg.CacheKB)
	if cfg.OperandNetWidth > 0 {
		p.OperandNetWidth = cfg.OperandNetWidth
	}
	return sim.Run(p, mt)
}

// NewRunner builds an experiment runner with the evaluation defaults
// (500k-instruction traces, parallel workers, optional on-disk memoization
// via Runner.ResultsPath).
func NewRunner() *Runner { return experiments.NewRunner() }

// Customer, Supply and ClearingResult expose the §2.3 market-clearing
// auction: utility-maximizing tenants bid for a chip's Slices and banks and
// a tatonnement finds prices at which demand is at most 1.05 times supply,
// so a cleared market can oversell each resource by up to 5%.
type (
	Customer       = econ.Customer
	Supply         = econ.Supply
	ClearingResult = econ.ClearingResult
)

// ClearMarket runs the auction (see econ.ClearMarket).
func ClearMarket(customers []Customer, supply Supply) (*ClearingResult, error) {
	return econ.ClearMarket(customers, supply, 0, 0)
}
