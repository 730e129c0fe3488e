// Package fpreduce defines an Analyzer that reports floating-point
// accumulation whose reduction order depends on goroutine scheduling.
//
// Float addition is not associative, so even a perfectly race-free
// reduction — each goroutine adding into a mutex-guarded total — produces
// run-to-run-different low bits depending on arrival order. That is
// exactly the bug class that would silently break SSim's byte-identical
// fingerprints: the race detector cannot see it, only the golden files
// drift. The deterministic shape is per-goroutine partial results reduced
// sequentially in ID order after the join, as the fleet commits its priced
// groups in group order and sums energy in machine-ID order.
//
// The pass flags, inside parallel regions: float `+=`/`-=`/`*=`/`/=` (and
// `x = x ⊕ y`) accumulation into shared or captured targets — mutex or
// not — plus calls whose summaries accumulate floats through shared roots;
// and, anywhere in scope, float accumulation inside a sync.Map.Range
// callback, whose iteration order varies run to run.
package fpreduce

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"sharing/internal/analysis"
	"sharing/internal/analysis/conc"
)

var Analyzer = &analysis.Analyzer{
	Name: "fpreduce",
	Doc:  "report float accumulation with a scheduling-dependent reduction order",
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
			if !w.Float || w.Own == conc.OwnPrivate || w.Own == conc.OwnPartitioned {
				return
			}
			guard := "without a mutex"
			if w.Locked {
				guard = "even under a mutex"
			}
			pass.Report(analysis.Diagnostic{
				Pos: w.Pos,
				Message: fmt.Sprintf(
					"float accumulation into shared %s inside a parallel region (%s) is ordered by goroutine scheduling %s; reduce per-goroutine partials in ID order after the barrier",
					types.ExprString(w.Target), r.Via, guard),
			})
		})
		r.VisitCalls(func(c conc.Call) {
			if !c.Float {
				return
			}
			pass.Report(analysis.Diagnostic{
				Pos: c.Pos,
				Message: fmt.Sprintf(
					"call to %s inside a parallel region (%s) accumulates floats into shared state; the reduction order depends on goroutine scheduling",
					c.Callee.Name(), r.Via),
			})
		})
	}
	// sync.Map.Range iterates in an unspecified order: float accumulation
	// in the callback is nondeterministic even single-goroutine.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !conc.IsSyncMapRange(pass, call) || len(call.Args) != 1 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for i, lhs := range as.Lhs {
					if floatAccum(pass, as, i, lhs) {
						pass.Report(analysis.Diagnostic{
							Pos: as.Pos(),
							Message: fmt.Sprintf(
								"float accumulation into %s inside a sync.Map.Range callback follows the map's unspecified iteration order; collect keys and reduce in sorted order",
								types.ExprString(lhs)),
						})
					}
				}
				return true
			})
			return true
		})
	}
	return nil
}

// floatAccum reports float accumulation at assignment index i.
func floatAccum(pass *analysis.Pass, st *ast.AssignStmt, i int, lhs ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[lhs]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return false
	}
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		if i < len(st.Rhs) {
			if bin, ok := ast.Unparen(st.Rhs[i]).(*ast.BinaryExpr); ok {
				switch bin.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					ls := types.ExprString(lhs)
					return types.ExprString(bin.X) == ls || types.ExprString(bin.Y) == ls
				}
			}
		}
	}
	return false
}
