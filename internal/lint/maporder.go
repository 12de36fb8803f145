package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` statements over maps whose body cannot be proven
// order-insensitive. Go randomizes map iteration order per range statement,
// so any such loop whose effect depends on visit order makes a simulation
// (or a figure built from one) differ run-to-run — exactly the
// nondeterminism the parallel harness guarantees against. The paper's
// protocols resolve ties "to the lowest address"; an unordered map walk
// silently breaks that tie-break too.
//
// A loop body is accepted without annotation only when every statement is
// commutative across iterations:
//
//   - writes keyed by the loop key (`other[k] = v`, `delete(other, k)`,
//     `byKey[k] = append(byKey[k], x)`) — distinct keys, distinct effects;
//   - integer/bool accumulation (`n++`, `n += v`, `seen = true` with a
//     constant RHS) — commutative regardless of order (float accumulation
//     is NOT accepted: FP addition does not associate);
//   - `if` statements whose condition calls nothing and reads no variable
//     the loop body mutates, guarding accepted statements;
//   - `continue`.
//
// Everything else needs a sort-before-range fix or a reasoned
// `//lint:maporder-ok` annotation — except a loop whose body calls into
// the protocol (mpda, protonet, transport): the order it visits routers is
// the order they see events, so no annotation silences that finding.
var MapOrder = &Analyzer{
	Name:     "maporder",
	Category: CategoryDeterminism,
	Doc:      "flags range over map with an order-sensitive body",
	Run:      runMapOrder,
}

func runMapOrder(p *Pass) {
	if !isModulePath(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if fn := protocolCall(p, rs.Body); fn != nil {
				p.reportAlways(rs.For, "range over map %s calls %s.%s, so the protocol sees its events in map order; iterate sorted keys (//lint:maporder-ok cannot excuse this)",
					types.ExprString(rs.X), fn.Pkg().Path(), fn.Name())
			} else if !mapLoopCommutes(p, rs) {
				p.Reportf(rs.For, "range over map %s has an order-sensitive body; iterate sorted keys or annotate //lint:maporder-ok <reason>", types.ExprString(rs.X))
			}
			return true
		})
	}
}

// protocolPkgs are the packages whose calls deliver protocol events.
var protocolPkgs = map[string]bool{
	"minroute/internal/mpda":      true,
	"minroute/internal/protonet":  true,
	"minroute/internal/transport": true,
}

// protocolCall returns the first function of a protocol package that body
// calls, or nil.
func protocolCall(p *Pass, body *ast.BlockStmt) *types.Func {
	var found *types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && found == nil {
			if fn := calleeOf(p, call); fn != nil && fn.Pkg() != nil && protocolPkgs[fn.Pkg().Path()] {
				found = fn
			}
		}
		return found == nil
	})
	return found
}

// mapLoopCommutes proves (conservatively) that executing the loop body once
// per map entry yields the same state for every visit order.
func mapLoopCommutes(p *Pass, rs *ast.RangeStmt) bool {
	key := rangeVarObj(p, rs.Key)
	mutated := mutatedObjs(p, rs.Body)
	for _, stmt := range rs.Body.List {
		if !commutativeStmt(p, stmt, key, mutated) {
			return false
		}
	}
	return true
}

// rangeVarObj returns the types.Object of a range key/value variable, or
// nil for a blank or absent one.
func rangeVarObj(p *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// mutatedObjs collects the root objects assigned, incremented, or deleted
// anywhere in the body. Guard conditions may not read them: a condition
// over loop-mutated state (e.g. `if count < 3`) makes which entries take
// the branch depend on visit order.
func mutatedObjs(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	mark := func(e ast.Expr) {
		if obj := rootObj(p, e); obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(s.X)
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isBuiltin(p, call.Fun, "delete") && len(call.Args) == 2 {
				mark(call.Args[0])
			}
		}
		return true
	})
	return out
}

// rootObj resolves an lvalue to its base object: rootObj(m[k]) = m,
// rootObj(s.f) = s.
func rootObj(p *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := p.Info.Uses[x]; obj != nil {
				return obj
			}
			return p.Info.Defs[x]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func commutativeStmt(p *Pass, stmt ast.Stmt, key types.Object, mutated map[types.Object]bool) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		return commutativeAssign(p, s, key)
	case *ast.IncDecStmt:
		// n++ / n-- on an integer is commutative wherever n lives.
		return isIntegerish(p.Info.TypeOf(s.X)) && pureExpr(p, s.X)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok || !isBuiltin(p, call.Fun, "delete") {
			return false
		}
		// delete(other, k): removes a distinct entry per iteration.
		return len(call.Args) == 2 && isKeyExpr(p, call.Args[1], key)
	case *ast.IfStmt:
		if s.Init != nil || s.Else != nil {
			return false
		}
		if !pureExpr(p, s.Cond) || readsAny(p, s.Cond, mutated) {
			return false
		}
		for _, inner := range s.Body.List {
			if !commutativeStmt(p, inner, key, mutated) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE && s.Label == nil
	}
	return false
}

func commutativeAssign(p *Pass, s *ast.AssignStmt, key types.Object) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		// Keyed write: other[k] = <pure>, or the append-to-bucket form
		// byKey[k] = append(byKey[k], <pure>). Distinct keys commute.
		if idx, ok := lhs.(*ast.IndexExpr); ok && isKeyExpr(p, idx.Index, key) {
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(p, call.Fun, "append") {
				if len(call.Args) < 1 || !sameExpr(p, call.Args[0], lhs) {
					return false
				}
				for _, a := range call.Args[1:] {
					if !pureExpr(p, a) {
						return false
					}
				}
				return true
			}
			return pureExpr(p, rhs)
		}
		// found = true (any constant): idempotent, hence order-free.
		if _, ok := lhs.(*ast.Ident); ok && s.Tok == token.ASSIGN {
			tv, ok := p.Info.Types[rhs]
			return ok && tv.Value != nil
		}
		return false
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Integer accumulation commutes; float accumulation does not
		// (rounding depends on the order of the partial sums).
		return isIntegerish(p.Info.TypeOf(lhs)) && pureExpr(p, lhs) && pureExpr(p, rhs)
	}
	return false
}

// isKeyExpr reports whether e is exactly the loop-key variable.
func isKeyExpr(p *Pass, e ast.Expr, key types.Object) bool {
	if key == nil {
		return false
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && p.Info.Uses[id] == key
}

// pureExpr reports whether evaluating e has no side effects: no calls
// (except the len/cap builtins and type conversions), no channel receives.
func pureExpr(p *Pass, e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if tv, ok := p.Info.Types[x.Fun]; ok && tv.IsType() {
				break // conversion like graph.NodeID(i)
			}
			if !isBuiltin(p, x.Fun, "len") && !isBuiltin(p, x.Fun, "cap") {
				pure = false
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				pure = false
			}
		}
		return pure
	})
	return pure
}

// readsAny reports whether e mentions any of the given objects.
func readsAny(p *Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// sameExpr reports whether a and b are structurally identical references
// (ident/selector/index chains over the same objects).
func sameExpr(p *Pass, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		xo, yo := p.Info.Uses[x], p.Info.Uses[y]
		return xo != nil && xo == yo
	case *ast.IndexExpr:
		y, ok := b.(*ast.IndexExpr)
		return ok && sameExpr(p, x.X, y.X) && sameExpr(p, x.Index, y.Index)
	case *ast.SelectorExpr:
		y, ok := b.(*ast.SelectorExpr)
		return ok && sameExpr(p, x.X, y.X) && x.Sel.Name == y.Sel.Name
	}
	return false
}

// isBuiltin reports whether fun names the given predeclared function.
func isBuiltin(p *Pass, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := p.Info.Uses[id]
	_, isB := obj.(*types.Builtin)
	return isB
}

// isIntegerish accepts integer and boolean types (bool for the |=/&= forms).
func isIntegerish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}
