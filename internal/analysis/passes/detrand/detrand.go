// Package detrand defines a simlint analyzer that keeps nondeterministic
// inputs out of SSim's deterministic packages.
//
// The simulator's contract (DESIGN.md, EXPERIMENTS.md) is that a run is a
// pure function of its parameters and seed: the paper's figures are
// reproduced byte-identically, and the golden/differential tests depend on
// it. The analyzer therefore flags, inside the configured packages:
//
//   - wall-clock reads: time.Now, time.Since, time.Until
//   - the global math/rand source: any package-level func except the
//     seedable constructors (rand.New, rand.NewSource, rand.NewZipf, ...);
//     randomness must flow from a seeded *rand.Rand value
//   - environment dependence: os.Getenv, os.LookupEnv, os.Environ,
//     runtime.NumCPU, runtime.GOMAXPROCS — values that make a simulation
//     branch on the machine it runs on
//
// Methods on seeded generator values (e.g. (*rand.Rand).Intn) are allowed;
// that is exactly how internal/workload threads determinism through.
package detrand

import (
	"go/ast"
	"go/types"
	"strings"

	"sharing/internal/analysis"
)

// DefaultScope lists the packages whose results must be a pure function of
// configuration and seed — the simulator core, the layers above it
// (market, alloc, autotuner, experiments), the drivers under cmd/, and the analysis suite
// itself (a nondeterministic linter would report findings in a
// run-to-run-varying order).
const DefaultScope = "internal/sim,internal/vcore,internal/slice,internal/cache,internal/noc,internal/trace,internal/workload,internal/econ,internal/hypervisor,internal/market,internal/alloc,internal/fleet,internal/autotuner,internal/experiments,internal/distrib,internal/area,internal/plot,internal/isa,internal/mem,internal/analysis,cmd"

var scope string

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid wall-clock, global-rand and environment reads in deterministic simulator packages",
	Run:  run,
}

func init() {
	Analyzer.Flags.StringVar(&scope, "pkgs", DefaultScope,
		"comma-separated package scopes treated as deterministic")
}

// banned maps package path -> function name -> diagnostic detail. An empty
// inner map means "every package-level function" (math/rand below is handled
// specially to allow constructors).
var banned = map[string]map[string]string{
	"time": {
		"Now":   "reads the wall clock",
		"Since": "reads the wall clock",
		"Until": "reads the wall clock",
	},
	"os": {
		"Getenv":    "makes results environment-dependent",
		"LookupEnv": "makes results environment-dependent",
		"Environ":   "makes results environment-dependent",
	},
	"runtime": {
		"NumCPU":     "makes results machine-dependent",
		"GOMAXPROCS": "makes results machine-dependent",
	},
}

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), strings.Split(scope, ",")) {
		return nil
	}
	analysis.Preorder(pass.Files, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return // methods (e.g. (*rand.Rand).Intn) are fine
		}
		path, name := fn.Pkg().Path(), fn.Name()
		if path == "math/rand" || path == "math/rand/v2" {
			if strings.HasPrefix(name, "New") {
				return // seedable constructors are the sanctioned entry point
			}
			pass.Reportf(call.Pos(),
				"%s.%s draws from the global rand source; thread a seeded *rand.Rand through instead", path, name)
			return
		}
		if detail, ok := banned[path][name]; ok {
			pass.Reportf(call.Pos(),
				"%s.%s %s; deterministic packages must derive everything from config and seed", path, name, detail)
		}
	})
	return nil
}
