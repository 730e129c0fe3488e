// Package sharedwrite defines an Analyzer that reports writes to shared
// state from parallel regions with no barrier, mutex, or partition
// justifying them.
//
// SSim's parallel layers are correct by construction: the trace generator's
// workers, the runner's grid probes and the fleet's cold pricing searches
// partition their state statically (one thread, one surface point, one
// pricing group per goroutine), and everything else crosses goroutines only
// at a sequential barrier or under a lock. This pass enforces the
// discipline: inside a parallel region — a go-launched function or a
// //ssim:parallel one — every write must land in goroutine-private memory,
// in a shared container element selected by a goroutine-private index, be
// lexically guarded by a mutex Lock/Unlock (or sync.Once.Do), or go
// through sync/atomic. Calls are checked compositionally: a callee whose
// summary writes through its receiver or a pointer parameter is flagged at
// the call site unless the written roots resolve to caller-owned memory or
// the callee's partition indices receive goroutine-private arguments.
package sharedwrite

import (
	"fmt"
	"go/types"

	"sharing/internal/analysis"
	"sharing/internal/analysis/conc"
)

var Analyzer = &analysis.Analyzer{
	Name: "sharedwrite",
	Doc:  "report unguarded writes to shared state from parallel regions",
	Run:  run,
}

var scope string

func init() {
	Analyzer.Flags.StringVar(&scope, "pkgs", conc.DefaultScope,
		"comma-separated package path suffixes to check")
}

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), conc.Scope(scope)) {
		return nil
	}
	info := conc.New(pass)
	for _, r := range info.Regions {
		r := r
		r.VisitWrites(func(w conc.Write) {
			if w.Own != conc.OwnShared || w.Locked {
				return
			}
			what := "shared state"
			if w.Map {
				what = "shared map"
			}
			pass.Report(analysis.Diagnostic{
				Pos: w.Pos,
				Message: fmt.Sprintf(
					"write to %s %s inside a parallel region (%s) without mutex, partition, or barrier",
					what, types.ExprString(w.Target), r.Via),
			})
		})
		r.VisitCalls(func(c conc.Call) {
			if !c.Write || c.Locked {
				return
			}
			pass.Report(analysis.Diagnostic{
				Pos: c.Pos,
				Message: fmt.Sprintf(
					"call to %s inside a parallel region (%s) writes shared state without mutex, partition, or barrier",
					c.Callee.Name(), r.Via),
			})
		})
	}
	return nil
}
