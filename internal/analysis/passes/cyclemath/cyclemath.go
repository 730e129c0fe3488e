// Package cyclemath defines a simlint analyzer that flags integer
// conversions that can corrupt cycle arithmetic.
//
// SSim keeps simulated time in uint64 cycle counters (vcore.Engine.Cycle,
// noc departure clocks, event-queue wake times). Two conversion shapes have
// bitten simulators before and are flagged inside the configured packages:
//
//   - narrowing: int32(x)/int8(x)/... where the operand's type is wider —
//     a cycle count or trace index silently truncates past 2^31
//   - sign traps: uint64(a - b) where the operand is signed arithmetic
//     containing a variable subtraction — a negative difference wraps to
//     a number near 2^64
//
// Conversions that are bounded by construction are exempt: constant
// operands, operands that are a top-level % or & expression (modulus and
// masks bound the result), len/cap results, subtraction of a constant
// (the `uint64(n - 1)` mask idiom), and subtractions already bounded by
// an enclosing % or &. Same-width unsigned-to-signed conversions are
// deliberately not flagged: int64(uint64) is the two's-complement delta
// idiom, and a 64-bit cycle count cannot reach the sign bit in any
// simulated run. Conversions that are correct for a contract-level reason
// carry
// //ssim:nolint cyclemath: <why>.
package cyclemath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sharing/internal/analysis"
	"sharing/internal/analysis/passes/detrand"
)

// DefaultScope mirrors detrand: the packages doing cycle arithmetic.
const DefaultScope = detrand.DefaultScope

var scope string

// Analyzer is the cyclemath pass.
var Analyzer = &analysis.Analyzer{
	Name: "cyclemath",
	Doc:  "flag narrowing and sign-trap integer conversions on cycle-counter arithmetic",
	Run:  run,
}

func init() {
	Analyzer.Flags.StringVar(&scope, "pkgs", DefaultScope,
		"comma-separated package scopes checked for cycle-math conversions")
}

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), strings.Split(scope, ",")) {
		return nil
	}
	analysis.Preorder(pass.Files, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return
		}
		// A conversion is a call whose Fun denotes a type.
		ftv, ok := pass.TypesInfo.Types[call.Fun]
		if !ok || !ftv.IsType() {
			return
		}
		dst, ok := basicInt(ftv.Type)
		if !ok {
			return
		}
		arg := ast.Unparen(call.Args[0])
		atv, ok := pass.TypesInfo.Types[arg]
		if !ok || atv.Value != nil {
			return // constants are checked by the compiler
		}
		src, ok := basicInt(atv.Type)
		if !ok {
			return
		}
		if boundedOperand(pass, arg) {
			return
		}
		dstW, dstU := width(dst), unsigned(dst)
		srcW, srcU := width(src), unsigned(src)
		switch {
		case !srcU && dstU && containsSub(pass, arg):
			pass.Reportf(call.Pos(),
				"%s of signed subtraction: a negative difference wraps to a huge cycle count; establish the ordering first", dst.Name())
		case dstW < srcW:
			pass.Reportf(call.Pos(),
				"narrowing conversion %s(%s) can truncate; cycle counters and trace indices need the full width or a bounds check", dst.Name(), src.Name())
		}
	})
	return nil
}

// basicInt unwraps t to a basic integer type (not bool, not float, not
// uintptr-as-pointer games — plain sized and unsized integers).
func basicInt(t types.Type) (*types.Basic, bool) {
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return nil, false
	}
	return b, true
}

// width returns the value width in bits (int/uint/uintptr count as 64: SSim
// targets 64-bit hosts and assuming smaller would hide truncation there).
func width(b *types.Basic) int {
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	default:
		return 64
	}
}

func unsigned(b *types.Basic) bool { return b.Info()&types.IsUnsigned != 0 }

// boundedOperand reports operand shapes whose value is bounded by
// construction: x % m, x & mask, len(...), cap(...), constants, and sums
// of a constant with a bounded term (the `1 + x%m` register-pick idiom).
func boundedOperand(pass *analysis.Pass, arg ast.Expr) bool {
	arg = ast.Unparen(arg)
	if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
		return true
	}
	switch x := arg.(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.REM, token.AND:
			return true
		case token.ADD:
			return boundedOperand(pass, x.X) && boundedOperand(pass, x.Y)
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
			return isBuiltin
		}
	}
	return false
}

// containsSub reports whether the expression tree contains a subtraction
// that can actually go negative at the converted value: subtracting a
// constant (`n - 1` mask construction) does not count, and subtrees whose
// result is re-bounded by % or & are skipped entirely.
func containsSub(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return !found
		}
		switch b.Op {
		case token.REM, token.AND:
			return false // result is bounded regardless of what is inside
		case token.SUB:
			if tv, ok := pass.TypesInfo.Types[b.Y]; !ok || tv.Value == nil {
				found = true
			}
		}
		return !found
	})
	return found
}
