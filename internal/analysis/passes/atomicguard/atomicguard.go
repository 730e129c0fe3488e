// Package atomicguard defines an Analyzer that reports synchronization
// primitives used in ways that silently stop synchronizing.
//
// Two rules:
//
//   - Mixed atomic/plain access: a variable or field passed to sync/atomic
//     free functions (atomic.AddInt64(&x, ...)) in one place and read or
//     written plainly elsewhere. The plain access races with the atomic
//     ones and the race detector only catches it when both sides actually
//     collide. SSim's own convention — the typed atomic.Int64/Pointer
//     wrappers, as in the allocator's statistics counters and the
//     SurfaceCache's value slots — makes this mistake unrepresentable; the
//     pass enforces the same property for code still on the free functions.
//
//   - Copies of lock-bearing values: a sync.Mutex, RWMutex, WaitGroup,
//     Once, Cond, Map, or typed sync/atomic value (or any struct or array
//     containing one, transitively) copied by value — as a parameter, an
//     assignment from an addressable expression, a range value, or a call
//     argument. The copy has its own lock state; guarding shared data with
//     it guards nothing.
package atomicguard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"sharing/internal/analysis"
	"sharing/internal/analysis/conc"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicguard",
	Doc:  "report mixed atomic/plain access and by-value copies of sync primitives",
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
	checkMixedAtomic(pass)
	checkLockCopies(pass)
	return nil
}

// ---------------------------------------------------------------------------
// Mixed atomic/plain access

// checkMixedAtomic collects every variable or field whose address is taken
// by a sync/atomic free function, then reports every access to the same
// object outside such a call.
func checkMixedAtomic(pass *analysis.Pass) {
	atomicObjs := make(map[types.Object][]token.Pos) // object -> atomic call sites
	inAtomic := make(map[ast.Node]bool)              // &x arguments of atomic calls

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFreeFunc(pass, call) || len(call.Args) == 0 {
				return true
			}
			u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				return true
			}
			if obj := accessedObject(pass, u.X); obj != nil {
				atomicObjs[obj] = append(atomicObjs[obj], call.Pos())
				inAtomic[u.X] = true
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if inAtomic[n] {
				return false // the atomic call's own &x argument
			}
			var obj types.Object
			switch x := n.(type) {
			case *ast.Ident:
				obj = pass.TypesInfo.Uses[x]
				// Field selections report at the SelectorExpr case; a bare
				// Ident use of a field only happens in keyed literals.
				if obj != nil {
					if v, ok := obj.(*types.Var); ok && v.IsField() {
						return true
					}
				}
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[x]; ok {
					obj = sel.Obj()
				}
				if obj != nil && atomicObjs[obj] != nil {
					pass.Report(analysis.Diagnostic{
						Pos: x.Pos(),
						Message: fmt.Sprintf(
							"field %s is accessed with sync/atomic elsewhere but plainly here; every access must be atomic (or use the typed atomic wrappers, which make this unrepresentable)",
							x.Sel.Name),
					})
				}
				return true
			default:
				return true
			}
			if obj != nil && atomicObjs[obj] != nil {
				pass.Report(analysis.Diagnostic{
					Pos: n.Pos(),
					Message: fmt.Sprintf(
						"%s is accessed with sync/atomic elsewhere but plainly here; every access must be atomic (or use the typed atomic wrappers, which make this unrepresentable)",
						obj.Name()),
				})
			}
			return true
		})
	}
}

// isAtomicFreeFunc reports a call to a sync/atomic package-level function
// taking an address (Add*, Load*, Store*, Swap*, CompareAndSwap*).
func isAtomicFreeFunc(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil // free function, not a typed-wrapper method
}

// accessedObject resolves the variable or field object behind an lvalue.
func accessedObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[x]; ok {
			return sel.Obj()
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Lock copies

// checkLockCopies reports by-value copies of types that transitively
// contain a sync lock or a typed sync/atomic value.
func checkLockCopies(pass *analysis.Pass) {
	memo := make(map[types.Type]bool)
	report := func(pos token.Pos, what string, t types.Type) {
		pass.Report(analysis.Diagnostic{
			Pos: pos,
			Message: fmt.Sprintf(
				"%s copies %s, which contains %s; the copy has independent lock state — pass a pointer",
				what, t.String(), lockName(t, memo)),
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				checkFieldList(pass, x.Recv, "receiver", memo, report)
				checkFieldList(pass, x.Type.Params, "parameter", memo, report)
				checkFieldList(pass, x.Type.Results, "result", memo, report)
			case *ast.FuncLit:
				checkFieldList(pass, x.Type.Params, "parameter", memo, report)
				checkFieldList(pass, x.Type.Results, "result", memo, report)
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if len(x.Lhs) != len(x.Rhs) {
						break
					}
					if id, ok := x.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
					if t := copiedLockType(pass, rhs, memo); t != nil {
						report(x.Pos(), "assignment", t)
					}
				}
			case *ast.RangeStmt:
				if x.Value == nil || isBlankExpr(x.Value) {
					return true
				}
				// In a `:=` range the value variable is a definition, which
				// TypesInfo.Types does not record — resolve the object.
				var t types.Type
				if id, ok := x.Value.(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						t = obj.Type()
					}
				} else if tv, ok := pass.TypesInfo.Types[x.Value]; ok {
					t = tv.Type
				}
				if t != nil && containsLock(t, memo) {
					report(x.Value.Pos(), "range value", t)
				}
			case *ast.CallExpr:
				if tv, ok := pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
					return true // conversion, not a call
				}
				for _, arg := range x.Args {
					if t := copiedLockType(pass, arg, memo); t != nil {
						report(arg.Pos(), "argument", t)
					}
				}
			}
			return true
		})
	}
}

// checkFieldList flags by-value lock-bearing entries of a parameter,
// result, or receiver list.
func checkFieldList(pass *analysis.Pass, fl *ast.FieldList, what string, memo map[types.Type]bool, report func(token.Pos, string, types.Type)) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		tv, ok := pass.TypesInfo.Types[f.Type]
		if !ok {
			continue
		}
		if containsLock(tv.Type, memo) {
			report(f.Type.Pos(), what, tv.Type)
		}
	}
}

// copiedLockType returns the lock-bearing type an expression copies by
// value, or nil. Fresh values (composite literals, calls) are initial
// states, not copies.
func copiedLockType(pass *analysis.Pass, e ast.Expr, memo map[types.Type]bool) types.Type {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return nil
	}
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	if !ok || !containsLock(tv.Type, memo) {
		return nil
	}
	return tv.Type
}

// containsLock reports whether t transitively contains a sync primitive or
// typed sync/atomic value (by value — a pointer to one is fine).
func containsLock(t types.Type, memo map[types.Type]bool) bool {
	if v, ok := memo[t]; ok {
		return v
	}
	memo[t] = false // cut cycles (impossible for value embedding, but safe)
	v := false
	switch u := t.(type) {
	case *types.Named:
		if isSyncPrimitive(u) {
			v = true
		} else {
			v = containsLock(u.Underlying(), memo)
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), memo) {
				v = true
				break
			}
		}
	case *types.Array:
		v = containsLock(u.Elem(), memo)
	}
	memo[t] = v
	return v
}

// lockName names the first sync primitive found inside t, for diagnostics.
func lockName(t types.Type, memo map[types.Type]bool) string {
	switch u := t.(type) {
	case *types.Named:
		if isSyncPrimitive(u) {
			return u.Obj().Pkg().Name() + "." + u.Obj().Name()
		}
		return lockName(u.Underlying(), memo)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), memo) {
				return lockName(u.Field(i).Type(), memo)
			}
		}
	case *types.Array:
		return lockName(u.Elem(), memo)
	}
	return "a sync primitive"
}

// isSyncPrimitive reports the sync and sync/atomic value types whose
// copies are independent synchronization state.
func isSyncPrimitive(n *types.Named) bool {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sync":
		switch obj.Name() {
		case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Map":
			return true
		}
	case "sync/atomic":
		switch obj.Name() {
		case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Value", "Pointer":
			return true
		}
	}
	return false
}

func isBlankExpr(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
