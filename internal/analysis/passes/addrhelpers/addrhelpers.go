// Package addrhelpers keeps the cache-line and page geometry in one place:
// internal/trace owns BlockBits/PageBits and the Block/Page/PageOfBlock/
// BlockOffset helpers, and every other package must go through them. The
// analyzer flags shift/mask expressions on uint64 operands that use the
// geometry constants directly —
//
//	x >> 6, x << 6, x >> 12, x << 12, x & 63, x &^ 63, x & 4095, x &^ 4095
//
// — outside internal/trace. Hard-coded 6s and 12s are how a "line size is
// 64 B" assumption leaks across a codebase and breaks the day a different
// geometry is simulated. Deliberate non-address bit packing can carry an
// "mpgraph:allow addrhelpers -- <reason>" directive.
package addrhelpers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"mpgraph/internal/analysis"
)

// Analyzer is the addrhelpers pass.
var Analyzer = &analysis.Analyzer{
	Name: "addrhelpers",
	Doc:  "flag raw >>/<</&/&^ address geometry arithmetic outside internal/trace",
	Match: func(path string) bool {
		return path != "mpgraph/internal/trace" &&
			(path == "mpgraph" || strings.HasPrefix(path, "mpgraph/internal/") || strings.HasPrefix(path, "mpgraph/cmd/") || strings.HasPrefix(path, "mpgraph/examples/"))
	},
	Run: run,
}

// shiftAmounts and maskValues are the block/page geometry constants
// (64-byte lines, 4 KiB pages) whose raw use is reserved to internal/trace.
var (
	shiftAmounts = map[int64]string{6: "BlockBits", 12: "PageBits"}
	maskValues   = map[int64]string{63: "block offset mask", 4095: "page offset mask"}
)

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			var table map[int64]string
			switch be.Op {
			case token.SHR, token.SHL:
				table = shiftAmounts
			case token.AND, token.AND_NOT:
				table = maskValues
			default:
				return true
			}
			// Exactly one side must be a constant from the geometry table
			// and the other a non-constant uint64 (an address-like value);
			// constant-folded expressions like 1<<24 are fine.
			x, y := be.X, be.Y
			if be.Op == token.AND || be.Op == token.AND_NOT {
				// Masks may appear on either side of &.
				if cv := constVal(pass, x); cv != nil && constVal(pass, y) == nil {
					x, y = y, x
				}
			}
			cv := constVal(pass, y)
			if cv == nil || constVal(pass, x) != nil {
				return true
			}
			v, ok := constant.Int64Val(constant.ToInt(*cv))
			if !ok {
				return true
			}
			name, hit := table[v]
			if !hit || !isUint64(pass, x) {
				return true
			}
			pass.Reportf(be.OpPos, "raw address geometry arithmetic (%s %d = %s): use the internal/trace block/page helpers", be.Op, v, name)
			return true
		})
	}
	return nil
}

func constVal(pass *analysis.Pass, e ast.Expr) *constant.Value {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return nil
	}
	return &tv.Value
}

func isUint64(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint64 || b.Kind() == types.Uintptr)
}
