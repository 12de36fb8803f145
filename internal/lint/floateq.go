package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between floating-point operands outside
// internal/numeric. Path distances are sums of link costs accumulated in
// path order, so equal-length paths routinely differ by a few ULPs; raw
// equality silently breaks tie-breaks the paper specifies (see the numeric
// package doc). Comparisons against an exact zero constant are allowed —
// zero is a sentinel (e.g. "no traffic", "not yet sampled"), produced by
// assignment rather than arithmetic — as is the x != x NaN probe.
var FloatEq = &Analyzer{
	Name:     "floateq",
	Category: CategoryDeterminism,
	Doc:      "flags ==/!= between floating-point operands outside internal/numeric",
	Run:      runFloatEq,
}

func runFloatEq(p *Pass) {
	if !isModulePath(p.Path) || p.Path == "minroute/internal/numeric" {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(p.Info.TypeOf(be.X)) || !isFloat(p.Info.TypeOf(be.Y)) {
				return true
			}
			if isZeroConst(p, be.X) || isZeroConst(p, be.Y) {
				return true
			}
			if be.Op == token.NEQ && sameExpr(p, be.X, be.Y) {
				return true // x != x: the portable NaN test
			}
			p.Reportf(be.OpPos, "floating-point %s comparison; use numeric.Closer or annotate //lint:floateq-ok <reason>", be.Op)
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isZeroConst reports whether e is a compile-time constant equal to zero.
func isZeroConst(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() != constant.Unknown && constant.Sign(tv.Value) == 0
}
