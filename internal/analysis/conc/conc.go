// Package conc is the shared concurrency-analysis layer behind simlint's
// sharedwrite, fpreduce and barrierorder passes: a lightweight
// intraprocedural dataflow plus call-graph approximation in the spirit of
// RacerD's compositional race analysis, sized for SSim's phase-parallel
// design and built, like the rest of internal/analysis, on the standard
// library alone.
//
// The model has three parts:
//
//   - Parallel regions. A region is a function body that executes on more
//     than one goroutine at once: the function literal of a go statement,
//     a same-package function launched by a go statement, or a function
//     carrying the //ssim:parallel directive (for call paths whose
//     concurrency is not syntactically visible in their own package, such
//     as the allocator's pricing path or the shared surface cache).
//
//   - Ownership. Within a region every expression is classified Private
//     (region-local values, per-iteration variables of the launching loop),
//     Partitioned (an element of a shared slice or array selected by a
//     goroutine-private index — the static-partition idiom the trace
//     generator's workers and the runner's grid probes are built on), or
//     Shared (package state, captured variables, anything reached through
//     the receiver or a reference parameter). A short alias prescan lets
//     region-local handles inherit the class of what they were assigned
//     from, so `m := mc.m` stays Shared while `e := mc.m.engines[i]`
//     becomes Partitioned.
//
//   - Summaries. Every package-level function gets a compositional summary
//     of the writes and float accumulations reachable through its receiver,
//     its parameters and package globals, with the partition indices that
//     guard them; call sites inside a region apply the callee summary to
//     the ownership of the actual arguments instead of re-analyzing the
//     callee. Writes lexically under a sync.Mutex lock or inside a
//     sync.Once.Do body are considered guarded.
//
// The approximations are deliberate and one-sided where they matter: the
// passes are meant to run clean over correct-by-construction code and to
// flag structure the barrier discipline cannot justify. Known false
// negatives (documented in DESIGN.md): an index derived from any
// region-local value is assumed goroutine-unique; pointers returned by
// function calls are assumed owned by the caller; lock tracking is lexical,
// so a lock held across a loop break is invisible; and a summary records no
// plain writes past its function's first Lock call.
package conc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sharing/internal/analysis"
	"sharing/internal/analysis/passes/detrand"
)

// DefaultScope covers the deterministic simulator core plus the experiment
// drivers — every package that launches goroutines or is called from one.
const DefaultScope = detrand.DefaultScope

// Own classifies who may touch the memory an expression designates, from
// the perspective of one parallel region.
type Own int

const (
	// OwnPrivate memory belongs to this goroutine alone.
	OwnPrivate Own = iota
	// OwnPartitioned memory is a shared-container element selected by a
	// goroutine-private index: owned by convention.
	OwnPartitioned
	// OwnShared memory is reachable from other goroutines of the phase.
	OwnShared
)

func (o Own) String() string {
	switch o {
	case OwnPrivate:
		return "private"
	case OwnPartitioned:
		return "partitioned"
	}
	return "shared"
}

type posRange struct{ lo, hi token.Pos }

func (r posRange) valid() bool          { return r.lo.IsValid() }
func (r posRange) has(p token.Pos) bool { return r.valid() && p >= r.lo && p <= r.hi }
func rangeOf(n ast.Node) posRange       { return posRange{n.Pos(), n.End()} }

// Info is the concurrency view of one package: its parallel regions and the
// write-effect summaries of its functions.
type Info struct {
	Pass    *analysis.Pass
	Regions []*Region

	decls     map[*types.Func]*ast.FuncDecl
	summaries map[*types.Func]*Summary
}

// New analyzes pass's package: discovers parallel regions, computes
// function summaries to a fixed point, and prepares ownership
// classification for each region.
func New(pass *analysis.Pass) *Info {
	in := &Info{
		Pass:      pass,
		decls:     make(map[*types.Func]*ast.FuncDecl),
		summaries: make(map[*types.Func]*Summary),
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				in.decls[fn] = fd
			}
		}
	}
	in.computeSummaries()
	in.findRegions()
	return in
}

// Summary returns fn's write-effect summary, or nil for functions outside
// the package (or without a body).
func (in *Info) Summary(fn *types.Func) *Summary { return in.summaries[fn] }

// ---------------------------------------------------------------------------
// Regions

// Region is one parallel region: a function body executing on multiple
// goroutines concurrently.
type Region struct {
	info *Info
	// Body holds the region's statements.
	Body *ast.BlockStmt
	// Via describes why the body is parallel, for diagnostics.
	Via string
	// Pos anchors region-level diagnostics.
	Pos token.Pos

	params  map[types.Object]bool // receiver + parameters: private values
	sharedP map[types.Object]bool // params whose pointee is shared (launch-site analysis)
	body    posRange
	iter    posRange // launching loop extent (go-in-loop literals)
	outer   posRange // enclosing declaration extent (capture detection)

	aliases map[types.Object]ref
	locked  []posRange
}

// findRegions discovers the package's parallel regions: go-launched
// function literals, go-launched same-package functions, and functions
// carrying //ssim:parallel.
func (in *Info) findRegions() {
	seen := make(map[*ast.BlockStmt]*Region)
	add := func(r *Region) {
		if seen[r.Body] == nil {
			seen[r.Body] = r
			in.Regions = append(in.Regions, r)
		}
	}
	for _, fd := range sortedDecls(in.decls) {
		if analysis.HasParallelDirective(fd) {
			if fn, ok := in.Pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				add(in.declRegion(fn, fd, "//ssim:parallel "+declTitle(fd)))
			}
		}
	}
	for _, fd := range sortedDecls(in.decls) {
		outer := rangeOf(fd)
		var loops []posRange
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loops = append(loops, rangeOf(n))
			case *ast.GoStmt:
				var iter posRange
				for i := len(loops) - 1; i >= 0; i-- {
					if loops[i].has(n.Pos()) {
						iter = loops[i]
						break
					}
				}
				switch fun := ast.Unparen(n.Call.Fun).(type) {
				case *ast.FuncLit:
					add(in.litRegion(fd, n, fun, iter, outer))
				default:
					if callee := StaticCallee(in.Pass, n.Call); callee != nil {
						if cd, ok := in.decls[callee]; ok {
							add(in.declRegion(callee, cd, "go "+declTitle(cd)))
						}
					}
				}
			}
			return true
		})
	}
	for _, r := range in.Regions {
		r.locked = lockIntervals(in.Pass, r.Body)
		r.buildAliases()
	}
}

// declRegion builds the region for a function declaration: its parameters
// and receiver are goroutine-private values, but everything they point to
// is shared (the same receiver/arguments reach every goroutine).
func (in *Info) declRegion(fn *types.Func, fd *ast.FuncDecl, via string) *Region {
	r := &Region{
		info:    in,
		Body:    fd.Body,
		Via:     via,
		Pos:     fd.Pos(),
		params:  make(map[types.Object]bool),
		sharedP: make(map[types.Object]bool),
		body:    rangeOf(fd.Body),
		outer:   rangeOf(fd),
	}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := in.Pass.TypesInfo.Defs[name]; obj != nil {
					r.params[obj] = true
					if isRefType(obj.Type()) {
						r.sharedP[obj] = true
					}
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	return r
}

// litRegion builds the region for a go-launched function literal. The
// literal's own parameters are private values; a pointer parameter's
// pointee is shared only when the launch-site argument is itself shared
// (loop-iteration arguments pass per-goroutine data).
func (in *Info) litRegion(fd *ast.FuncDecl, g *ast.GoStmt, lit *ast.FuncLit, iter, outer posRange) *Region {
	r := &Region{
		info:    in,
		Body:    lit.Body,
		Via:     "go statement",
		Pos:     g.Pos(),
		params:  make(map[types.Object]bool),
		sharedP: make(map[types.Object]bool),
		body:    rangeOf(lit.Body),
		iter:    iter,
		outer:   outer,
	}
	var objs []types.Object
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				if obj := in.Pass.TypesInfo.Defs[name]; obj != nil {
					r.params[obj] = true
					objs = append(objs, obj)
				}
			}
		}
	}
	for i, obj := range objs {
		if !isRefType(obj.Type()) || i >= len(g.Call.Args) {
			continue
		}
		if in.launchArgShared(g.Call.Args[i], iter) {
			r.sharedP[obj] = true
		}
	}
	return r
}

// launchArgShared reports whether a go-call argument passes shared data:
// anything not freshly built and not derived from the launching loop's
// per-iteration state.
func (in *Info) launchArgShared(arg ast.Expr, iter posRange) bool {
	switch e := ast.Unparen(arg).(type) {
	case *ast.CallExpr, *ast.CompositeLit:
		return false
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				return false
			}
		}
	}
	shared := true
	ast.Inspect(arg, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := in.Pass.TypesInfo.Uses[id]
		if obj != nil && iter.has(obj.Pos()) {
			shared = false
		}
		return true
	})
	return shared
}

// ---------------------------------------------------------------------------
// Ownership classification

// ref classifies what a region-local handle refers to.
type ref struct {
	own Own
}

// buildAliases prescans the region body in lexical order, classifying
// region-local variables that alias pre-existing memory: a local assigned
// from a shared expression is a Shared handle, one assigned from a
// partitioned element (or a fresh value, or a call result) is Private.
func (r *Region) buildAliases() {
	r.aliases = make(map[types.Object]ref)
	ast.Inspect(r.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		if len(as.Lhs) != len(as.Rhs) {
			return true // multi-value call results: fresh values
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := r.info.Pass.TypesInfo.Defs[id]
			if obj == nil || !isRefType(obj.Type()) {
				continue
			}
			if own := r.classifyRHS(as.Rhs[i]); own != OwnPrivate {
				r.aliases[obj] = ref{own: own}
			}
		}
		return true
	})
}

// classifyRHS classifies the memory a right-hand side hands over: fresh
// values and call results are Private (caller-owned by convention), lvalue
// chains inherit the ownership of their root and indexing.
func (r *Region) classifyRHS(e ast.Expr) Own {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CallExpr, *ast.CompositeLit, *ast.FuncLit, *ast.BasicLit, *ast.BinaryExpr:
		return OwnPrivate
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return r.classifyLValue(x.X, false, false)
		}
		return OwnPrivate
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		// Copying a reference hands over its pointee: handle semantics.
		return r.classifyLValue(e, false, true)
	}
	return OwnPrivate
}

// Classify resolves the ownership of an assignable expression within the
// region: a bare parameter or local names its private binding.
func (r *Region) Classify(e ast.Expr) Own { return r.classifyLValue(e, false, false) }

// ClassifyHandle resolves the ownership of the memory a reference-typed
// expression leads to when handed to a callee: a bare pointer parameter
// stands for its (possibly shared) pointee, not the private binding.
func (r *Region) ClassifyHandle(e ast.Expr) Own { return r.classifyLValue(e, false, true) }

// classifyLValue walks an lvalue chain down to its root identifier,
// tracking dereferences and index privacy. isWrite selects write semantics
// for map indexing (a map element write mutates shared map structure and is
// never partitioned; a map element read with a private key follows the
// ownership-transfer convention). handle selects pointee semantics for
// bare reference roots (arguments and alias sources rather than write
// targets).
func (r *Region) classifyLValue(e ast.Expr, isWrite, handle bool) Own {
	info := r.info.Pass.TypesInfo
	hasPath := false  // selector/index/star between root and expression
	privIdx := false  // some index on the path is goroutine-private
	mapWrite := false // the outermost write target is a map element
	first := true
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.Ident:
			return r.classifyRoot(x, hasPath || handle, privIdx, mapWrite)
		case *ast.SelectorExpr:
			// A qualified package identifier (pkg.Var) roots at the var.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return r.classifyRoot(x.Sel, hasPath || handle, privIdx, mapWrite)
				}
			}
			hasPath = true
			e = x.X
		case *ast.IndexExpr:
			hasPath = true
			if tv, ok := info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					if first && isWrite {
						mapWrite = true
					} else if r.mentionsPrivate(x.Index) {
						privIdx = true
					}
				} else if r.mentionsPrivate(x.Index) {
					privIdx = true
				}
			} else if r.mentionsPrivate(x.Index) {
				privIdx = true
			}
			e = x.X
		case *ast.StarExpr:
			hasPath = true
			e = x.X
		case *ast.CallExpr, *ast.CompositeLit, *ast.TypeAssertExpr:
			return OwnPrivate // fresh or caller-owned by convention
		default:
			return OwnPrivate
		}
		first = false
	}
}

// classifyRoot classifies the root identifier of an lvalue chain.
func (r *Region) classifyRoot(id *ast.Ident, hasPath, privIdx, mapWrite bool) Own {
	info := r.info.Pass.TypesInfo
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil || id.Name == "_" {
		return OwnPrivate
	}
	partitioned := func() Own {
		if mapWrite {
			return OwnShared
		}
		if privIdx {
			return OwnPartitioned
		}
		return OwnShared
	}
	switch {
	case isPackageLevel(obj):
		return partitioned()
	case r.params[obj]:
		if !hasPath {
			return OwnPrivate // rebinding the parameter variable itself
		}
		if !r.sharedP[obj] && !isRefType(obj.Type()) {
			return OwnPrivate // field/element of a by-value copy
		}
		if !r.sharedP[obj] && r.iter.valid() {
			// Literal parameter fed per-iteration data at the launch site.
			return OwnPrivate
		}
		return partitioned()
	case r.body.has(obj.Pos()):
		// Region-local: private unless it aliases outside memory.
		al, ok := r.aliases[obj]
		if !ok || !hasPath {
			return OwnPrivate
		}
		if al.own == OwnShared {
			return partitioned() // shared handle: only a private index helps
		}
		return OwnPrivate
	case r.iter.has(obj.Pos()):
		// Declared in the launching loop iteration: per-goroutine.
		return OwnPrivate
	case r.outer.has(obj.Pos()):
		// Captured from the enclosing function: shared across goroutines
		// (a bare captured variable is shared memory too — it lives in the
		// enclosing frame).
		return partitioned()
	default:
		return partitioned()
	}
}

// mentionsPrivate reports whether an index expression mentions a
// goroutine-private value: a region-local, a loop-iteration variable, or a
// by-value parameter. Values read through shared pointers (receiver
// fields, captured state) do not count.
func (r *Region) mentionsPrivate(idx ast.Expr) bool {
	info := r.info.Pass.TypesInfo
	private := false
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if private || e == nil {
			return
		}
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				return
			}
			switch {
			case r.params[obj] && !isRefType(obj.Type()):
				private = true
			case r.body.has(obj.Pos()), r.iter.has(obj.Pos()):
				private = true
			}
		case *ast.SelectorExpr:
			// cfg.Slices with cfg a by-value param or local counts; a field
			// read through a shared pointer does not.
			if r.selectorRootPrivate(x) {
				private = true
			}
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.IndexExpr:
			walk(x.Index)
			walk(x.X)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.CallExpr:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(idx)
	return private
}

// selectorRootPrivate reports whether a selector chain roots at a private
// value without passing through a reference type.
func (r *Region) selectorRootPrivate(sel *ast.SelectorExpr) bool {
	info := r.info.Pass.TypesInfo
	e := ast.Expr(sel)
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if tv, ok := info.Types[x.X]; ok && isRefType(tv.Type) {
				// Reading through a pointer: private only when the handle
				// itself is private (alias map / locality), which
				// classifyLValue decides; approximate via root object.
				id, ok := rootIdent(x.X)
				if !ok {
					return false
				}
				obj := info.Uses[id]
				if obj == nil {
					return false
				}
				if r.params[obj] && !r.sharedP[obj] && r.iter.valid() {
					return true
				}
				return (r.body.has(obj.Pos()) || r.iter.has(obj.Pos())) && r.aliases[obj].own != OwnShared
			}
			e = x.X
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				return false
			}
			if r.params[obj] && !isRefType(obj.Type()) {
				return true
			}
			return r.body.has(obj.Pos()) || r.iter.has(obj.Pos())
		default:
			return false
		}
	}
}

// Locked reports whether a position is lexically inside a mutex-held or
// sync.Once.Do span of the region body.
func (r *Region) Locked(p token.Pos) bool {
	for _, iv := range r.locked {
		if iv.has(p) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Region write/call visitors

// Write is one mutation of memory inside a region.
type Write struct {
	Pos    token.Pos
	Target ast.Expr
	Own    Own
	// Float marks arithmetic accumulation (+= -= *= /= or x = x ⊕ y) on a
	// floating-point target — order-sensitive even when guarded.
	Float bool
	// Map marks a map-element write (never partitioned).
	Map bool
	// Locked marks writes lexically under a mutex or sync.Once.Do.
	Locked bool
	// Append marks `s = append(s, ...)` self-appends.
	Append bool
}

// Call is one same-package call inside a region with the callee's summary
// effects resolved against the ownership of the call's actual arguments.
type Call struct {
	Pos    token.Pos
	Callee *types.Func
	Expr   *ast.CallExpr
	Locked bool
	// Write/Float report unguarded shared effects surviving partition
	// discharge; Root names the argument root that makes them shared.
	Write bool
	Float bool
}

// VisitWrites calls fn for every assignment, IncDec and self-append in the
// region body, with ownership resolved. Nested go-launched literals and
// sync.Once.Do bodies are skipped (they are their own region / guarded).
func (r *Region) VisitWrites(fn func(Write)) {
	r.walk(func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			isAppend := false
			if st.Tok == token.ASSIGN && len(st.Lhs) == 1 && len(st.Rhs) == 1 {
				if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
						if _, isB := r.info.Pass.TypesInfo.Uses[id].(*types.Builtin); isB {
							isAppend = true
						}
					}
				}
			}
			for i, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				if st.Tok == token.DEFINE {
					if id, ok := lhs.(*ast.Ident); ok {
						if r.info.Pass.TypesInfo.Defs[id] != nil {
							continue // fresh variable, not a write to shared memory
						}
					}
				}
				w := Write{
					Pos:    st.Pos(),
					Target: lhs,
					Own:    r.classifyLValue(lhs, true, false),
					Locked: r.Locked(st.Pos()),
					Append: isAppend,
				}
				if _, isMapW := mapWriteTarget(r.info.Pass, lhs); isMapW {
					w.Map = true
				}
				w.Float = r.isFloatAccum(st, i, lhs)
				fn(w)
			}
		case *ast.IncDecStmt:
			fn(Write{
				Pos:    st.Pos(),
				Target: st.X,
				Own:    r.classifyLValue(st.X, true, false),
				Locked: r.Locked(st.Pos()),
			})
		}
	})
}

// isFloatAccum reports whether assignment st accumulates into a
// floating-point lhs: an arithmetic op-assign, or `x = x ⊕ y`.
func (r *Region) isFloatAccum(st *ast.AssignStmt, i int, lhs ast.Expr) bool {
	tv, ok := r.info.Pass.TypesInfo.Types[lhs]
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

// VisitCalls calls fn for every same-package call in the region whose
// callee summary, applied to the ownership of the actual arguments, leaves
// an undischarged shared effect.
func (r *Region) VisitCalls(fn func(Call)) {
	pass := r.info.Pass
	r.walk(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := StaticCallee(pass, call)
		if callee == nil {
			return
		}
		sum := r.info.summaries[callee]
		if sum == nil {
			return
		}
		c := Call{Pos: call.Pos(), Callee: callee, Expr: call, Locked: r.Locked(call.Pos())}
		apply := func(e Effect, root ast.Expr) {
			if !e.Write.Present && !e.Float.Present {
				return
			}
			var own Own = OwnShared
			if root != nil {
				own = r.ClassifyHandle(root)
			}
			if own != OwnShared {
				return // caller owns the memory the callee writes
			}
			discharge := func(b EffectBit) bool {
				if !b.Partitioned {
					return false
				}
				for _, pi := range b.IdxParams {
					if pi >= len(call.Args) || r.Classify(call.Args[pi]) == OwnShared {
						return false
					}
				}
				return true
			}
			if e.Write.Present && !discharge(e.Write) {
				c.Write = true
			}
			if e.Float.Present && !discharge(e.Float) {
				c.Float = true
			}
		}
		apply(sum.Global, nil)
		if recv := recvExpr(call); recv != nil {
			apply(sum.Recv, recv)
		}
		for i, e := range sum.Param {
			if e.Write.Present || e.Float.Present {
				if i < len(call.Args) {
					apply(e, call.Args[i])
				}
			}
		}
		if c.Write || c.Float {
			fn(c)
		}
	})
}

// walk visits the region body, skipping nested go-launched function
// literals (separate regions) and sync.Once.Do callback bodies (guarded).
func (r *Region) walk(fn func(ast.Node)) {
	skip := make(map[ast.Node]bool)
	ast.Inspect(r.Body, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				skip[lit] = true
			}
		case *ast.CallExpr:
			if isOnceDo(r.info.Pass, x) && len(x.Args) == 1 {
				if lit, ok := ast.Unparen(x.Args[0]).(*ast.FuncLit); ok {
					skip[lit] = true
				}
			}
		}
		fn(n)
		return true
	})
}

// ---------------------------------------------------------------------------
// Summaries

// EffectBit is one kind of effect reachable through a summary root.
type EffectBit struct {
	Present bool
	// Partitioned: every contributing write went through a container index
	// derived from the function's own parameters, listed in IdxParams. A
	// call site whose arguments in those positions are goroutine-private
	// discharges the effect.
	Partitioned bool
	IdxParams   []int
}

func (b *EffectBit) add(partitioned bool, idx []int) bool {
	changed := false
	if !b.Present {
		b.Present, b.Partitioned, b.IdxParams = true, partitioned, append([]int(nil), idx...)
		return true
	}
	if b.Partitioned && !partitioned {
		b.Partitioned, b.IdxParams = false, nil
		return true
	}
	if b.Partitioned {
		for _, p := range idx {
			found := false
			for _, q := range b.IdxParams {
				if p == q {
					found = true
					break
				}
			}
			if !found {
				b.IdxParams = append(b.IdxParams, p)
				changed = true
			}
		}
	}
	return changed
}

// Effect aggregates the writes and float accumulations reachable through
// one summary root (receiver, parameter, or package globals).
type Effect struct {
	Write EffectBit // plain writes not guarded by a mutex
	Float EffectBit // float accumulation, guarded or not (order-sensitive)
}

// Summary is one function's compositional write-effect summary.
type Summary struct {
	Recv   Effect
	Param  []Effect
	Global Effect
}

// summaryCtx is the per-function context summaries are computed in.
type summaryCtx struct {
	in      *Info
	fd      *ast.FuncDecl
	sum     *Summary
	recvObj types.Object
	paramIx map[types.Object]int
	// paramRef records, per parameter index, whether the parameter has a
	// reference type (writes through by-value parameters stay local).
	paramRef []bool
	body     posRange
	// derived maps integer-ish locals to the parameter indices their
	// initialization derives from (for partition tracking).
	derived map[types.Object][]int
	// aliases maps reference-typed locals to the summary root they point
	// into.
	aliases map[types.Object]sumRef
	// firstLock is the position of the body's first mutex Lock: plain
	// writes past it are treated as guarded (the critical-section
	// approximation).
	firstLock  token.Pos
	onceBodies map[ast.Node]bool
}

type sumRoot int

const (
	rootFresh sumRoot = iota
	rootRecv
	rootParam
	rootGlobal
)

type sumRef struct {
	root        sumRoot
	paramI      int
	partitioned bool
	idxParams   []int
}

// computeSummaries computes all function summaries to a fixed point.
func (in *Info) computeSummaries() {
	ctxs := make([]*summaryCtx, 0, len(in.decls))
	for _, fd := range sortedDecls(in.decls) {
		fn, ok := in.Pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		in.summaries[fn] = &Summary{Param: make([]Effect, paramCount(fn))}
		ctxs = append(ctxs, newSummaryCtx(in, fd, in.summaries[fn]))
	}
	for round := 0; round < 20; round++ {
		changed := false
		for _, c := range ctxs {
			if c.scan() {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

func paramCount(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	return sig.Params().Len()
}

func newSummaryCtx(in *Info, fd *ast.FuncDecl, sum *Summary) *summaryCtx {
	c := &summaryCtx{
		in:         in,
		fd:         fd,
		sum:        sum,
		paramIx:    make(map[types.Object]int),
		body:       rangeOf(fd.Body),
		derived:    make(map[types.Object][]int),
		aliases:    make(map[types.Object]sumRef),
		onceBodies: make(map[ast.Node]bool),
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		c.recvObj = in.Pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	}
	i := 0
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			c.paramRef = append(c.paramRef, typeExprIsRef(in.Pass, f.Type))
			i++
			continue
		}
		for _, name := range f.Names {
			if obj := in.Pass.TypesInfo.Defs[name]; obj != nil {
				c.paramIx[obj] = i
			}
			c.paramRef = append(c.paramRef, typeExprIsRef(in.Pass, f.Type))
			i++
		}
	}
	// First pass over the body: first Lock position, Once.Do bodies,
	// derivation and alias maps (lexical, one pass is enough for the
	// straight-line initialization patterns the simulator uses).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isMutexLock(in.Pass, x) && !c.firstLock.IsValid() {
				c.firstLock = x.Pos()
			}
			if isOnceDo(in.Pass, x) && len(x.Args) == 1 {
				if lit, ok := ast.Unparen(x.Args[0]).(*ast.FuncLit); ok {
					c.onceBodies[lit] = true
				}
			}
		case *ast.AssignStmt:
			c.recordAliases(x)
		case *ast.RangeStmt:
			c.recordRangeAliases(x)
		}
		return true
	})
	return c
}

// recordAliases classifies defined locals: integer locals inherit the
// parameter-derivation set of their initializer; reference locals inherit
// the summary root they alias.
func (c *summaryCtx) recordAliases(as *ast.AssignStmt) {
	if as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := c.in.Pass.TypesInfo.Defs[id]
		if obj == nil {
			continue
		}
		if isRefType(obj.Type()) {
			if ref, ok := c.resolveRef(as.Rhs[i]); ok {
				c.aliases[obj] = ref
			}
			continue
		}
		if d := c.deriveParams(as.Rhs[i]); len(d) > 0 {
			c.derived[obj] = d
		}
	}
}

// recordRangeAliases handles `for i, v := range x`: the key derives from
// x's root parameters when x is parameter-rooted (ranging a worker's own
// index list yields worker-owned indices).
func (c *summaryCtx) recordRangeAliases(rs *ast.RangeStmt) {
	if rs.Tok != token.DEFINE {
		return
	}
	d := c.deriveParams(rs.X)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := c.in.Pass.TypesInfo.Defs[id]; obj != nil && len(d) > 0 {
			c.derived[obj] = d
		}
	}
}

// deriveParams returns the parameter indices an expression's value derives
// from, or nil when it mentions anything non-parameter-derived.
func (c *summaryCtx) deriveParams(e ast.Expr) []int {
	var out []int
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		id, isID := n.(*ast.Ident)
		if !isID {
			return true
		}
		obj := c.in.Pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if i, isP := c.paramIx[obj]; isP {
			out = append(out, i)
			return true
		}
		if obj == c.recvObj {
			return true // constant-ish receiver reads don't poison derivation
		}
		if d, isD := c.derived[obj]; isD {
			out = append(out, d...)
			return true
		}
		if c.body.has(obj.Pos()) {
			// Plain local with no recorded derivation: not parameter-derived.
			ok = false
		}
		return true
	})
	if !ok || len(out) == 0 {
		return nil
	}
	return out
}

// resolveRef resolves a reference-typed RHS to the summary root it points
// into.
func (c *summaryCtx) resolveRef(e ast.Expr) (sumRef, bool) {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	privIdx := false
	var idxParams []int
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.Ident:
			obj := c.in.Pass.TypesInfo.Uses[x]
			if obj == nil {
				return sumRef{}, false
			}
			switch {
			case obj == c.recvObj:
				return sumRef{root: rootRecv, partitioned: privIdx, idxParams: idxParams}, true
			case isPackageLevel(obj):
				return sumRef{root: rootGlobal, partitioned: privIdx, idxParams: idxParams}, true
			default:
				if i, isP := c.paramIx[obj]; isP {
					return sumRef{root: rootParam, paramI: i, partitioned: privIdx, idxParams: idxParams}, true
				}
				if al, isA := c.aliases[obj]; isA {
					if privIdx {
						al.partitioned = true
						al.idxParams = append(append([]int(nil), al.idxParams...), idxParams...)
					}
					return al, true
				}
				return sumRef{}, false // plain local: fresh
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := c.in.Pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
					return sumRef{root: rootGlobal, partitioned: privIdx, idxParams: idxParams}, true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if d := c.deriveParams(x.Index); len(d) > 0 {
				privIdx = true
				idxParams = append(idxParams, d...)
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return sumRef{}, false
		}
	}
}

// scan walks the body once, merging write effects and propagated callee
// effects into the summary. Reports whether the summary changed.
func (c *summaryCtx) scan() bool {
	changed := false
	merge := func(ref sumRef, isFloat bool) {
		var e *Effect
		switch ref.root {
		case rootRecv:
			e = &c.sum.Recv
		case rootParam:
			if ref.paramI >= len(c.sum.Param) {
				return
			}
			e = &c.sum.Param[ref.paramI]
		case rootGlobal:
			e = &c.sum.Global
		default:
			return
		}
		bit := &e.Write
		if isFloat {
			bit = &e.Float
		}
		if bit.add(ref.partitioned, ref.idxParams) {
			changed = true
		}
	}
	skip := make(map[ast.Node]bool)
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		if skip[n] || c.onceBodies[n] {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				skip[lit] = true // a region of its own, not a caller effect
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				c.scanWrite(lhs, x, i, merge)
			}
		case *ast.IncDecStmt:
			c.scanWrite(x.X, nil, 0, merge)
		case *ast.CallExpr:
			c.scanCall(x, merge)
		}
		return true
	})
	return changed
}

// scanWrite merges one assignment target into the summary.
func (c *summaryCtx) scanWrite(lhs ast.Expr, as *ast.AssignStmt, i int, merge func(sumRef, bool)) {
	if as != nil && as.Tok == token.DEFINE {
		if id, ok := lhs.(*ast.Ident); ok && c.in.Pass.TypesInfo.Defs[id] != nil {
			return
		}
	}
	ref, hasPath, ok := c.resolveWriteTarget(lhs)
	if !ok {
		return
	}
	if ref.root == rootFresh {
		return
	}
	// A bare `param = x` rebinds the local copy; only path writes escape.
	if !hasPath && ref.root != rootGlobal {
		return
	}
	isFloat := false
	if as != nil {
		isFloat = floatAccumAssign(c.in.Pass, as, i, lhs)
	}
	guarded := c.firstLock.IsValid() && lhs.Pos() > c.firstLock
	if !guarded {
		merge(ref, false)
	}
	if isFloat {
		merge(ref, true)
	}
}

// resolveWriteTarget resolves an lvalue to its summary root.
func (c *summaryCtx) resolveWriteTarget(lhs ast.Expr) (ref sumRef, hasPath bool, ok bool) {
	e := ast.Unparen(lhs)
	switch e.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		hasPath = true
	case *ast.Ident:
		id := e.(*ast.Ident)
		obj := c.in.Pass.TypesInfo.Uses[id]
		if obj == nil {
			return sumRef{}, false, false
		}
		if isPackageLevel(obj) {
			return sumRef{root: rootGlobal}, false, true
		}
		return sumRef{}, false, false
	}
	r, okRef := c.resolveRef(e)
	if !okRef {
		// Writes through by-value receivers/params mutate local copies.
		return sumRef{}, hasPath, false
	}
	if r.root == rootRecv && c.recvObj != nil && !isRefType(c.recvObj.Type()) {
		return sumRef{}, hasPath, false // value receiver: local copy
	}
	if r.root == rootParam && r.paramI >= 0 && r.paramI < len(c.paramRef) && !c.paramRef[r.paramI] {
		return sumRef{}, hasPath, false // by-value parameter copy
	}
	return r, hasPath, true
}

// scanCall propagates a same-package callee's summary through the call's
// argument roots.
func (c *summaryCtx) scanCall(call *ast.CallExpr, merge func(sumRef, bool)) {
	callee := StaticCallee(c.in.Pass, call)
	if callee == nil {
		return
	}
	sum := c.in.summaries[callee]
	if sum == nil {
		return
	}
	guarded := c.firstLock.IsValid() && call.Pos() > c.firstLock
	propagate := func(e Effect, site ast.Expr) {
		if site == nil {
			if e.Write.Present || e.Float.Present {
				// Callee touches globals: globals stay global here.
				if e.Write.Present && !guarded {
					merge(sumRef{root: rootGlobal, partitioned: e.Write.Partitioned && false}, false)
				}
				if e.Float.Present {
					merge(sumRef{root: rootGlobal}, true)
				}
			}
			return
		}
		siteRef, ok := c.resolveRef(site)
		if !ok {
			return // fresh/owned at this level: effect absorbed
		}
		through := func(b EffectBit, isFloat bool) {
			if !b.Present {
				return
			}
			out := siteRef
			if b.Partitioned {
				// Map the callee's index params to this function's params
				// through the call-site arguments.
				mapped := make([]int, 0, len(b.IdxParams))
				allMapped := true
				for _, pi := range b.IdxParams {
					if pi >= len(call.Args) {
						allMapped = false
						break
					}
					d := c.deriveParams(call.Args[pi])
					if len(d) == 0 {
						allMapped = false
						break
					}
					mapped = append(mapped, d...)
				}
				if allMapped {
					out.partitioned = true
					out.idxParams = append(append([]int(nil), out.idxParams...), mapped...)
				} else if !out.partitioned {
					out.partitioned = false
					out.idxParams = nil
				}
			}
			if !isFloat && guarded {
				return
			}
			merge(out, isFloat)
		}
		through(e.Write, false)
		through(e.Float, true)
	}
	if sum.Global.Write.Present || sum.Global.Float.Present {
		propagate(sum.Global, nil)
	}
	if recv := recvExpr(call); recv != nil {
		propagate(sum.Recv, recv)
	}
	for i, e := range sum.Param {
		if (e.Write.Present || e.Float.Present) && i < len(call.Args) {
			propagate(e, call.Args[i])
		}
	}
}

// floatAccumAssign reports float accumulation for assignment index i.
func floatAccumAssign(pass *analysis.Pass, st *ast.AssignStmt, i int, lhs ast.Expr) bool {
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

// ---------------------------------------------------------------------------
// Lock tracking

// lockIntervals computes the lexical spans of body where a mutex write-lock
// is held: from each sync.Mutex/RWMutex Lock() call to its matching
// Unlock(), or to the body's end when the Unlock is deferred. RLock does
// not count — writes under a read lock still race. sync.Once.Do callback
// bodies count as guarded spans.
func lockIntervals(pass *analysis.Pass, body *ast.BlockStmt) []posRange {
	type ev struct {
		pos   token.Pos
		delta int
	}
	var evs []ev
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			if isMutexUnlock(pass, x.Call) {
				// Held to the end of the body: no closing event. Skip the
				// subtree so the call is not also seen as an inline Unlock.
				return false
			}
		case *ast.CallExpr:
			if isMutexLock(pass, x) {
				evs = append(evs, ev{x.Pos(), +1})
			} else if isMutexUnlock(pass, x) {
				evs = append(evs, ev{x.Pos(), -1})
			} else if isOnceDo(pass, x) && len(x.Args) == 1 {
				if lit, ok := ast.Unparen(x.Args[0]).(*ast.FuncLit); ok {
					out = append(out, rangeOf(lit.Body))
				}
			}
		}
		return true
	})
	depth := 0
	var open token.Pos
	for _, e := range evs {
		if e.delta > 0 {
			if depth == 0 {
				open = e.pos
			}
			depth++
		} else if depth > 0 {
			depth--
			if depth == 0 {
				out = append(out, posRange{open, e.pos})
			}
		}
	}
	if depth > 0 {
		out = append(out, posRange{open, body.End()})
	}
	return out
}

// isMutexLock reports a call of Lock() on a sync.Mutex or sync.RWMutex
// (directly or through an embedded field).
func isMutexLock(pass *analysis.Pass, call *ast.CallExpr) bool {
	return isSyncMutexMethod(pass, call, "Lock")
}

func isMutexUnlock(pass *analysis.Pass, call *ast.CallExpr) bool {
	return isSyncMutexMethod(pass, call, "Unlock")
}

func isSyncMutexMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isP := t.(*types.Pointer); isP {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// isOnceDo reports a (*sync.Once).Do call.
func isOnceDo(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync"
}

// IsSyncMapRange reports a (*sync.Map).Range call; the callback runs in an
// unspecified, run-to-run-varying order.
func IsSyncMapRange(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// Shared helpers

// StaticCallee resolves a call to a statically known function or method
// (nil for builtins, function values, and interface methods).
func StaticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
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

// recvExpr returns the receiver expression of a method call, or nil.
func recvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// rootIdent returns the identifier at the root of an lvalue chain.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// mapWriteTarget reports whether an lvalue is a map-element write.
func mapWriteTarget(pass *analysis.Pass, lhs ast.Expr) (*ast.IndexExpr, bool) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return nil, false
	}
	tv, ok := pass.TypesInfo.Types[ix.X]
	if !ok {
		return nil, false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return ix, isMap
}

// isRefType reports types whose copies share underlying memory.
func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// typeExprIsRef reports whether the type named by expr is reference-like.
func typeExprIsRef(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	return isRefType(tv.Type)
}

// isPackageLevel reports whether obj is a package-level variable.
func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// sortedDecls returns the declarations in source order for deterministic
// region discovery.
func sortedDecls(decls map[*types.Func]*ast.FuncDecl) []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, 0, len(decls))
	for _, fd := range decls {
		//ssim:nolint maprange: collection order is erased by the positional sort immediately below
		out = append(out, fd)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Pos() > out[j].Pos(); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// declTitle names a declaration for diagnostics (Type.Method or Func).
func declTitle(fd *ast.FuncDecl) string {
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

// Scope returns the configured package scope for a concurrency pass flag
// value (comma-separated entries).
func Scope(scope string) []string { return strings.Split(scope, ",") }
