// Package hotalloc defines a simlint analyzer that keeps SSim's annotated
// hot paths allocation-free, guarding the ~300x allocs/op reduction the
// event-driven engine rework bought (`make bench` reports allocs/op).
//
// A function carrying the //ssim:hotpath directive in its doc comment is a
// hot-path root. The analyzer computes the set of functions statically
// reachable from the roots through same-package calls (cross-package calls
// are the callee package's responsibility — annotate its hot functions
// directly) and flags, inside every member:
//
//   - map and slice composite literals
//   - make of a map, slice or channel, and the new builtin
//   - function literals (closures capture and allocate)
//   - any call into package fmt (formatting allocates)
//   - concrete arguments passed to interface parameters (boxing)
//   - calls to same-package constructors (New* functions); constructor
//     bodies themselves are not traversed, the call is the finding
//
// panic arguments are exempt: a panicking simulator is already off the
// measured path. Struct literals and appends are allowed — appends reuse
// capacity in steady state, which is precisely the engine's design.
// Intentional exceptions (error paths, amortized lazy init) are annotated
// //ssim:nolint hotalloc: <reason>.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"sharing/internal/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs in //ssim:hotpath functions and their same-package callees",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Map every package-level function/method object to its declaration.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
			if analysis.HasHotpathDirective(fd) {
				roots = append(roots, fd)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Breadth-first closure over same-package static calls, remembering the
	// root that pulled each function in (for the diagnostic message).
	type member struct {
		decl *ast.FuncDecl
		via  string
	}
	seen := make(map[*ast.FuncDecl]bool)
	var queue []member
	for _, r := range roots {
		seen[r] = true
		queue = append(queue, member{r, funcTitle(r)})
	}
	c := &checker{pass: pass}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		c.via = m.via
		c.check(m.decl)
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(pass, call)
			if fn == nil {
				return true
			}
			callee, local := decls[fn]
			if !local || seen[callee] {
				return true
			}
			if strings.HasPrefix(fn.Name(), "New") {
				return true // flagged at the call site by check()
			}
			seen[callee] = true
			queue = append(queue, member{callee, m.via})
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	via  string // hot-path root name for messages
}

// check flags allocating constructs in one hot function body.
func (c *checker) check(fd *ast.FuncDecl) {
	pass := c.pass
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocates on the hot path (via //ssim:hotpath %s); restructure into a method or loop", c.via)
			return false // contents belong to the closure, already flagged
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal allocates on the hot path (via //ssim:hotpath %s)", c.via)
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal allocates on the hot path (via //ssim:hotpath %s)", c.via)
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return false // a panicking simulator is off the measured path
				}
			}
			c.checkCall(n)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	pass := c.pass
	// Builtins: make(map/slice/chan), new.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				if len(call.Args) > 0 {
					if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok {
						switch tv.Type.Underlying().(type) {
						case *types.Map, *types.Slice, *types.Chan:
							pass.Reportf(call.Pos(), "make allocates on the hot path (via //ssim:hotpath %s)", c.via)
						}
					}
				}
			case "new":
				pass.Reportf(call.Pos(), "new allocates on the hot path (via //ssim:hotpath %s)", c.via)
			}
			return
		}
	}
	fn := staticCallee(pass, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates on the hot path (via //ssim:hotpath %s)", fn.Name(), c.via)
		return
	}
	if fn.Pkg() == pass.Pkg && strings.HasPrefix(fn.Name(), "New") {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			pass.Reportf(call.Pos(), "constructor %s called on the hot path (via //ssim:hotpath %s)", fn.Name(), c.via)
			return
		}
	}
	c.checkBoxing(call, fn)
}

// checkBoxing flags concrete values passed where the callee declares an
// interface parameter: the argument is boxed, which allocates unless the
// compiler can prove otherwise.
func (c *checker) checkBoxing(call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		tv, ok := c.pass.TypesInfo.Types[arg]
		if !ok || tv.IsNil() || tv.Value != nil && tv.Type == nil {
			continue
		}
		if tv.Type == nil || types.IsInterface(tv.Type.Underlying()) {
			continue
		}
		c.pass.Reportf(arg.Pos(), "%s boxed into interface parameter of %s allocates on the hot path (via //ssim:hotpath %s)",
			types.TypeString(tv.Type, types.RelativeTo(c.pass.Pkg)), fn.Name(), c.via)
	}
}

// staticCallee resolves a call to a statically known function or method in
// any package (nil for builtins, function values, and interface methods).
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			// Interface method calls are dynamic: no static callee.
			if recv := sel.Recv(); recv != nil && types.IsInterface(recv.Underlying()) {
				return nil
			}
		}
		obj = pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func funcTitle(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}
