// Package barrierorder defines an Analyzer that reports results of
// parallel phases merged in completion order instead of a deterministic
// ID order.
//
// SSim's barrier discipline is that goroutines never merge their own
// results: each fills a slot indexed by its thread/point/group ID, and
// the sequential phase after the join reduces the slots in ID order (the
// fleet reports the lowest failing pricing group's error and commits warm
// starts in group order). Any merge keyed by *when a goroutine finished* —
// appending to a shared slice from inside a region, draining a results
// channel as values arrive, iterating a sync.Map — produces a
// scheduling-dependent order and breaks byte-identical replay, even when
// every access is perfectly synchronized. This generalizes the maprange
// rule from map iteration to slices-of-goroutine-results.
//
// The pass flags: appends to shared slices inside parallel regions (locked
// or not — the lock serializes, the order still floats); receive loops
// (`for v := range ch` or counted `<-ch` loops) in functions that launch
// goroutines, when the received values are used; and appends or channel
// sends inside sync.Map.Range callbacks.
package barrierorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"sharing/internal/analysis"
	"sharing/internal/analysis/conc"
)

var Analyzer = &analysis.Analyzer{
	Name: "barrierorder",
	Doc:  "report parallel-phase results merged in completion order instead of ID order",
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
			if !w.Append || w.Own != conc.OwnShared {
				return
			}
			pass.Report(analysis.Diagnostic{
				Pos: w.Pos,
				Message: fmt.Sprintf(
					"append to shared %s from a parallel region (%s) merges results in goroutine completion order; fill a per-goroutine slot and concatenate in ID order after the barrier",
					types.ExprString(w.Target), r.Via),
			})
		})
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLauncher(pass, fd)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok && conc.IsSyncMapRange(pass, call) && len(call.Args) == 1 {
				if lit, isLit := ast.Unparen(call.Args[0]).(*ast.FuncLit); isLit {
					checkRangeCallback(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// checkLauncher flags completion-order receive loops in functions that
// launch goroutines: ranging a channel, or receiving inside a loop with
// the value kept. Discarded receives (semaphore/token protocols) are fine.
func checkLauncher(pass *analysis.Pass, fd *ast.FuncDecl) {
	launches := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			launches = true
		}
		return true
	})
	if !launches {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[x.X]
			if !ok {
				return true
			}
			if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
				return true
			}
			if x.Key == nil || isBlank(x.Key) {
				return true // pure drain: counting, not merging
			}
			pass.Report(analysis.Diagnostic{
				Pos: x.Pos(),
				Message: fmt.Sprintf(
					"ranging over channel %s merges goroutine results in completion order; have workers fill an ID-indexed slice and iterate it after the join",
					types.ExprString(x.X)),
			})
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				u, ok := ast.Unparen(rhs).(*ast.UnaryExpr)
				if !ok || u.Op != token.ARROW {
					continue
				}
				if i < len(x.Lhs) && isBlank(x.Lhs[i]) {
					continue
				}
				if !insideLoop(fd.Body, x.Pos()) {
					continue
				}
				pass.Report(analysis.Diagnostic{
					Pos: x.Pos(),
					Message: fmt.Sprintf(
						"receiving goroutine results from %s in a loop merges them in completion order; have workers fill an ID-indexed slice and iterate it after the join",
						types.ExprString(u.X)),
				})
			}
		}
		return true
	})
}

// checkRangeCallback flags order-sensitive operations in a sync.Map.Range
// callback: appends and channel sends inherit the map's unspecified
// iteration order. (Float accumulation there is fpreduce's report.)
func checkRangeCallback(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
				return true
			}
			for _, rhs := range x.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if _, isB := pass.TypesInfo.Uses[id].(*types.Builtin); !isB {
					continue
				}
				pass.Report(analysis.Diagnostic{
					Pos:     x.Pos(),
					Message: "append inside a sync.Map.Range callback follows the map's unspecified iteration order; collect and sort, or range a deterministic snapshot",
				})
			}
		case *ast.SendStmt:
			pass.Report(analysis.Diagnostic{
				Pos:     x.Pos(),
				Message: "channel send inside a sync.Map.Range callback follows the map's unspecified iteration order; collect and sort, or range a deterministic snapshot",
			})
		}
		return true
	})
}

// insideLoop reports whether pos is inside a for/range statement of body.
func insideLoop(body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n.Pos() <= pos && pos <= n.End() {
				found = true
			}
		}
		return true
	})
	return found
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
