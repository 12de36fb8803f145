package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// NoWall forbids direct wall-clock reads — time.Now, time.Since and
// time.Until — everywhere in the module: simulation code, the live
// runtime, and the cmd/ and examples/ entry points. A simulation is a pure
// function of its seed only if every timestamp comes from the DES clock,
// and the live node runtime behaves identically under a virtual clock in
// tests and a wall clock in production only if every timestamp flows
// through the transport.Clock interface; a stray time.Now is a second,
// unmockable time source. In simulation code such a read reaches a pinned
// output and the goldens catch it; in the live runtime's session code it
// reaches none, which is why the check is kept (DESIGN.md §9). The single
// sanctioned reader is internal/node's wallclock.go, where WallClock
// adapts the real clock to the interface. Timers (time.AfterFunc,
// time.Sleep) are not checked: waiting is observable behavior, which the
// goldens and -race see, while reading the clock is hidden state.
var NoWall = &Analyzer{
	Name:     "nowall",
	Category: CategoryDeterminism,
	Doc:      "forbids time.Now, time.Since and time.Until outside internal/node's wall-clock adapter",
	Run:      runNoWall,
}

// noWallFuncs are the banned wall-clock readers.
var noWallFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runNoWall(p *Pass) {
	if !isModulePath(p.Path) {
		return
	}
	for _, f := range p.Files {
		// The one sanctioned reader: WallClock in internal/node. The
		// exemption is keyed on package path and file name, so a
		// wallclock.go anywhere else stays covered.
		if p.Path == "minroute/internal/node" &&
			filepath.Base(p.Fset.Position(f.Pos()).Filename) == "wallclock.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if noWallFuncs[fn.Name()] {
				p.Reportf(sel.Pos(), "time.%s is a direct wall-clock read; route time through transport.Clock (see internal/node/wallclock.go)", fn.Name())
			}
			return true
		})
	}
}
