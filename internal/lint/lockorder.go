package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder builds the package's mutex-acquisition graph and flags the
// three deadlock shapes a review is most likely to miss.
var LockOrder = &Analyzer{
	Name:     "lockorder",
	Category: CategoryConcurrency,
	Doc: `flag lock-order cycles, locks held across blocking ops, and unbalanced Lock/Unlock paths

Tracks sync.Mutex/RWMutex acquisition spans through each function and the
in-package calls it makes while holding a lock. Lock identity is the
declaration: a struct field names the same lock role across all instances
(an ordering discipline is about roles, not addresses), a package or local
variable names itself. Reports: (1) every edge of a cycle in the
acquired-while-held graph, (2) re-acquiring a lock already held (self
deadlock; RLock counts — sync.RWMutex readers block behind queued
writers), (3) blocking channel operations or WaitGroup.Wait while a lock
is held (select with default is non-blocking and exempt; sync.Cond.Wait is
the sanctioned park-while-locked and exempt), and (4) any return path or
function end reached with a lock still held and no deferred unlock.
Conditionally-held locks (the "lock, maybe unlock, return locked" idiom)
need a suppression explaining the contract.`,
	Run: runLockOrder,
}

// heldLock is one acquired lock in the walker's held set. The set is an
// ordered slice: order is acquisition order (needed for edge direction)
// and keeps diagnostics deterministic without sorting map keys.
type heldLock struct {
	obj types.Object
	n   int // recursion depth; >1 only transiently, reported on entry
}

// lockEdge is one "acquired b while holding a" observation.
type lockEdge struct {
	from, to types.Object
	pos      token.Pos
}

type lockOrderState struct {
	p      *Pass
	bodies map[*types.Func]*ast.FuncDecl
	// mayAcquire lists, per in-package function, the lock identities its
	// body (excluding nested func literals) may acquire, directly or via
	// in-package callees. Ordered, deduplicated.
	mayAcquire map[*types.Func][]types.Object
	edges      []lockEdge
}

func runLockOrder(p *Pass) {
	st := &lockOrderState{p: p, bodies: funcBodies(p)}
	st.buildMayAcquire()

	// Walk every function declaration and every func literal as an
	// independent entry point with an empty held set: a literal's body runs
	// under whatever locks hold at its *call* site (often a different
	// goroutine), not its creation site, so inheriting the creator's held
	// set would be wrong in both directions.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					st.walkEntry(n.Body)
				}
			case *ast.FuncLit:
				st.walkEntry(n.Body)
			}
			return true
		})
	}

	st.reportCycles()
}

// buildMayAcquire computes the transitive may-acquire sets by fixpoint
// over the in-package call graph.
func (st *lockOrderState) buildMayAcquire() {
	// Deterministic function order: by declaration position.
	fns := make([]*types.Func, 0, len(st.bodies))
	for fn := range st.bodies { //lint:maporder-ok collected into a slice and sorted by position below
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	direct := make(map[*types.Func][]types.Object)
	callees := make(map[*types.Func][]*types.Func)
	for _, fn := range fns {
		body := st.bodies[fn].Body
		var acq []types.Object
		var outs []*types.Func
		inspectSkippingFuncLits(body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if kind, obj := classifySyncCall(st.p, call); kind == syncLock && obj != nil {
				acq = appendObj(acq, obj)
				return
			}
			if callee := calleeOf(st.p, call); callee != nil {
				if _, inPkg := st.bodies[callee]; inPkg {
					outs = append(outs, callee)
				}
			}
		})
		direct[fn] = acq
		callees[fn] = outs
	}

	st.mayAcquire = direct
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			set := st.mayAcquire[fn]
			for _, callee := range callees[fn] {
				for _, obj := range st.mayAcquire[callee] {
					if !containsObj(set, obj) {
						set = append(set, obj)
						changed = true
					}
				}
			}
			st.mayAcquire[fn] = set
		}
	}
}

func appendObj(s []types.Object, obj types.Object) []types.Object {
	if containsObj(s, obj) {
		return s
	}
	return append(s, obj)
}

func containsObj(s []types.Object, obj types.Object) bool {
	for _, o := range s {
		if o == obj {
			return true
		}
	}
	return false
}

// inspectSkippingFuncLits walks the tree under root but does not descend
// into func literals: their bodies are separate entry points.
func inspectSkippingFuncLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// lockWalker tracks the held set and pending deferred unlocks through one
// entry point's statements.
type lockWalker struct {
	st       *lockOrderState
	held     []heldLock
	deferred []types.Object // locks a defer will release on any exit
}

func (st *lockOrderState) walkEntry(body *ast.BlockStmt) {
	w := &lockWalker{st: st}
	terminated := w.walkStmts(body.List)
	if !terminated {
		w.reportLeaks(body.End() - 1)
	}
}

// reportLeaks flags locks still held at an exit point that no defer will
// release.
func (w *lockWalker) reportLeaks(pos token.Pos) {
	for _, h := range w.held {
		if containsObj(w.deferred, h.obj) {
			continue
		}
		w.st.p.Reportf(pos, "%s is locked with no Unlock on this path",
			objDisplay(w.st.p, h.obj))
	}
}

// snapshot/restore give branch bodies independent copies of the state.
func (w *lockWalker) snapshot() ([]heldLock, []types.Object) {
	return append([]heldLock(nil), w.held...), append([]types.Object(nil), w.deferred...)
}

func (w *lockWalker) restore(held []heldLock, deferred []types.Object) {
	w.held, w.deferred = held, deferred
}

// walkStmts walks a statement list, returning true if control cannot fall
// off its end (every path returns, panics, or loops forever).
func (w *lockWalker) walkStmts(list []ast.Stmt) bool {
	for _, s := range list {
		if w.walkStmt(s) {
			return true
		}
	}
	return false
}

// walkStmt processes one statement; true means control does not continue
// past it.
func (w *lockWalker) walkStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(s.List)

	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt)

	case *ast.ExprStmt:
		w.walkExpr(s.X)

	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e)
		}

	case *ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				w.walkCall(n)
				return false
			}
			return true
		})

	case *ast.SendStmt:
		if len(w.held) > 0 {
			w.st.p.Reportf(s.Arrow, "channel send while %s is held may block forever",
				objDisplay(w.st.p, w.held[len(w.held)-1].obj))
		}
		w.walkExpr(s.Value)

	case *ast.DeferStmt:
		if kind, obj := classifySyncCall(w.st.p, s.Call); kind == syncUnlock && obj != nil {
			w.deferred = appendObj(w.deferred, obj)
		}
		// Arguments to the deferred call evaluate now; the call itself runs
		// at exit and is otherwise out of scope for the held-set walk.
		for _, arg := range s.Call.Args {
			w.walkExpr(arg)
		}

	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.walkExpr(arg)
		}

	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e)
		}
		w.reportLeaks(s.Pos())
		return true

	case *ast.BranchStmt:
		// break/continue/goto leave the surrounding control structure; the
		// loop-balance check at the for statement covers held-set drift.
		return s.Tok == token.BREAK || s.Tok == token.CONTINUE || s.Tok == token.GOTO

	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.walkExpr(s.Cond)
		held, deferred := w.snapshot()
		thenTerm := w.walkStmts(s.Body.List)
		thenHeld, thenDeferred := w.snapshot()
		w.restore(held, deferred)
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else)
		}
		if thenTerm && elseTerm {
			return true
		}
		if thenTerm {
			return false // else branch (or fallthrough) state already current
		}
		if elseTerm {
			w.restore(thenHeld, thenDeferred)
			return false
		}
		w.merge(thenHeld, thenDeferred)

	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond)
		}
		entryHeld, entryDeferred := w.snapshot()
		bodyTerm := w.walkStmts(s.Body.List)
		if s.Post != nil {
			w.walkStmt(s.Post)
		}
		if !bodyTerm {
			// Only a body that reaches the next iteration can drift; a body
			// that always returns already got its leak report at the return.
			w.checkLoopBalance(s.Pos(), entryHeld)
		}
		w.restore(entryHeld, entryDeferred)
		if s.Cond == nil && !hasLoopExit(s) {
			// for{} with no break/goto out: control never passes this
			// statement; every exit is a return already checked above.
			return true
		}

	case *ast.RangeStmt:
		w.walkExpr(s.X)
		entryHeld, entryDeferred := w.snapshot()
		if !w.walkStmts(s.Body.List) {
			w.checkLoopBalance(s.Pos(), entryHeld)
		}
		w.restore(entryHeld, entryDeferred)

	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag)
		}
		return w.walkCases(s.Body, false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		return w.walkCases(s.Body, false)

	case *ast.SelectStmt:
		if len(w.held) > 0 && !selectHasDefault(s) {
			w.st.p.Reportf(s.Pos(), "select with no default while %s is held may block forever",
				objDisplay(w.st.p, w.held[len(w.held)-1].obj))
		}
		return w.walkCases(s.Body, true)
	}
	return false
}

// walkCases handles switch/select bodies: each clause runs from the same
// entry state; the statement terminates only if every clause does (and,
// for switch, a default exists — select blocks until a case fires, so no
// default needed).
func (w *lockWalker) walkCases(body *ast.BlockStmt, isSelect bool) bool {
	entryHeld, entryDeferred := w.snapshot()
	allTerm := len(body.List) > 0
	hasDefault := false
	var exits [][2]any
	for _, clause := range body.List {
		w.restore(append([]heldLock(nil), entryHeld...), append([]types.Object(nil), entryDeferred...))
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.walkExpr(e)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				// The comm op itself (send/recv) is the sanctioned blocking
				// point of the select; the select-level check above covers
				// blocking-while-locked, so don't double-report here.
				w.walkCommStmt(c.Comm)
			}
			stmts = c.Body
		}
		if !w.walkStmts(stmts) {
			allTerm = false
			h, d := w.snapshot()
			exits = append(exits, [2]any{h, d})
		}
	}
	if !isSelect && !hasDefault {
		allTerm = false
		exits = append(exits, [2]any{entryHeld, entryDeferred})
	}
	if allTerm || len(exits) == 0 {
		// Every clause terminates — or there are none at all (an empty
		// select{} parks the goroutine forever).
		return true
	}
	// Continue with the first falling-through clause's state, merged with
	// the rest.
	w.restore(exits[0][0].([]heldLock), exits[0][1].([]types.Object))
	for _, e := range exits[1:] {
		w.merge(e[0].([]heldLock), e[1].([]types.Object))
	}
	return false
}

// walkCommStmt evaluates a select communication clause without the
// blocking-op report that a bare send/receive would trigger.
func (w *lockWalker) walkCommStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.SendStmt:
		w.walkExpr(s.Value)
	case *ast.ExprStmt: // <-ch
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			w.walkExpr(u.X)
			return
		}
		w.walkExpr(s.X)
	case *ast.AssignStmt: // v := <-ch
		for _, e := range s.Rhs {
			if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				w.walkExpr(u.X)
				continue
			}
			w.walkExpr(e)
		}
	}
}

// merge folds another branch's exit state into the current one: a lock is
// held after the join if either branch held it (conservative — a one-sided
// hold is exactly the conditional-lock pattern worth surfacing downstream);
// a defer covers the join only if both paths registered it.
func (w *lockWalker) merge(held []heldLock, deferred []types.Object) {
	for _, h := range held {
		found := false
		for i := range w.held {
			if w.held[i].obj == h.obj {
				if h.n > w.held[i].n {
					w.held[i].n = h.n
				}
				found = true
				break
			}
		}
		if !found {
			w.held = append(w.held, h)
		}
	}
	var keep []types.Object
	for _, d := range w.deferred {
		if containsObj(deferred, d) {
			keep = append(keep, d)
		}
	}
	w.deferred = keep
}

// checkLoopBalance reports a loop whose body changes the held set between
// iterations — each pass acquires (or releases) without balancing.
func (w *lockWalker) checkLoopBalance(pos token.Pos, entry []heldLock) {
	for _, h := range w.held {
		if !heldContains(entry, h.obj) {
			w.st.p.Reportf(pos, "loop body acquires %s without releasing it before the next iteration",
				objDisplay(w.st.p, h.obj))
		}
	}
	for _, h := range entry {
		if !heldContains(w.held, h.obj) {
			w.st.p.Reportf(pos, "loop body releases %s it did not acquire; held set differs between iterations",
				objDisplay(w.st.p, h.obj))
		}
	}
}

func heldContains(s []heldLock, obj types.Object) bool {
	for _, h := range s {
		if h.obj == obj {
			return true
		}
	}
	return false
}

// walkExpr scans an expression for calls and lock-relevant operations.
func (w *lockWalker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate entry point
		case *ast.CallExpr:
			w.walkCall(n)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(w.held) > 0 {
				w.st.p.Reportf(n.OpPos, "channel receive while %s is held may block forever",
					objDisplay(w.st.p, w.held[len(w.held)-1].obj))
			}
		}
		return true
	})
}

// walkCall is where the graph edges come from: sync calls mutate the held
// set; in-package calls project their may-acquire sets under the current
// holds.
func (w *lockWalker) walkCall(call *ast.CallExpr) {
	// Arguments first (they evaluate before the call).
	for _, arg := range call.Args {
		w.walkExpr(arg)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(sel.X)
	}

	kind, obj := classifySyncCall(w.st.p, call)
	switch kind {
	case syncLock:
		if obj == nil {
			return
		}
		for i := range w.held {
			if w.held[i].obj == obj {
				w.st.p.Reportf(call.Pos(), "%s is already held here; re-acquiring self-deadlocks",
					objDisplay(w.st.p, obj))
				w.held[i].n++
				return
			}
		}
		w.recordEdges(obj, call.Pos())
		w.held = append(w.held, heldLock{obj: obj, n: 1})
	case syncUnlock:
		if obj == nil {
			return
		}
		for i := range w.held {
			if w.held[i].obj == obj {
				w.held[i].n--
				if w.held[i].n <= 0 {
					w.held = append(w.held[:i], w.held[i+1:]...)
				}
				return
			}
		}
		// Unlock of a lock the walker does not believe is held: either a
		// conditional-hold pattern or a bug; the leak check on the lock
		// side is the authoritative report, so stay quiet here.
	case syncWaitGroup:
		if len(w.held) > 0 {
			w.st.p.Reportf(call.Pos(), "WaitGroup.Wait while %s is held may block forever",
				objDisplay(w.st.p, w.held[len(w.held)-1].obj))
		}
	case syncNone:
		// Everything else in sync is lock-neutral here. Cond.Wait, in
		// particular, releases its Locker while parked and re-acquires it
		// before returning: holding the lock across it is the documented
		// protocol, not a blocking-while-locked bug.
		if isBuiltin(w.st.p, call.Fun, "panic") && len(w.held) > 0 {
			for _, h := range w.held {
				if !containsObj(w.deferred, h.obj) {
					w.st.p.Reportf(call.Pos(), "panic while %s is held and no deferred Unlock covers it",
						objDisplay(w.st.p, h.obj))
				}
			}
			return
		}
		callee := calleeOf(w.st.p, call)
		if callee == nil {
			return
		}
		if _, inPkg := w.st.bodies[callee]; !inPkg {
			return
		}
		if len(w.held) == 0 {
			return
		}
		for _, acq := range w.st.mayAcquire[callee] {
			if heldContains(w.held, acq) {
				w.st.p.Reportf(call.Pos(), "call to %s may re-acquire %s, which is already held",
					callee.Name(), objDisplay(w.st.p, acq))
				continue
			}
			w.recordEdges(acq, call.Pos())
		}
	}
}

// recordEdges adds held→acquired edges for a new acquisition, one per
// currently-held lock, deduplicated on the pair (first position wins).
func (w *lockWalker) recordEdges(to types.Object, pos token.Pos) {
	for _, h := range w.held {
		exists := false
		for _, e := range w.st.edges {
			if e.from == h.obj && e.to == to {
				exists = true
				break
			}
		}
		if !exists {
			w.st.edges = append(w.st.edges, lockEdge{from: h.obj, to: to, pos: pos})
		}
	}
}

// hasLoopExit reports whether the for statement's body (excluding nested
// loops/switches for unlabeled breaks, and func literals always) contains
// a break, goto, or labeled branch that can leave the loop.
func hasLoopExit(loop *ast.ForStmt) bool {
	exit := false
	var scan func(n ast.Node, breakable bool)
	scan = func(n ast.Node, breakable bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if exit {
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				// Unlabeled break inside binds to the inner statement; a
				// labeled break or goto still escapes, so rescan the child
				// statement lists (not the node itself) with breaks disarmed.
				for _, child := range childStmtLists(m) {
					for _, s := range child {
						scan(s, false)
					}
				}
				return false
			case *ast.BranchStmt:
				switch m.Tok {
				case token.BREAK:
					if breakable || m.Label != nil {
						exit = true
					}
				case token.GOTO:
					exit = true
				}
			}
			return true
		})
	}
	scan(loop.Body, true)
	return exit
}

// childStmtLists returns the statement lists nested directly under a
// loop/switch/select node, for rescan with unlabeled breaks disarmed.
func childStmtLists(n ast.Node) [][]ast.Stmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return [][]ast.Stmt{n.Body.List}
	case *ast.RangeStmt:
		return [][]ast.Stmt{n.Body.List}
	case *ast.SwitchStmt:
		return clauseBodies(n.Body)
	case *ast.TypeSwitchStmt:
		return clauseBodies(n.Body)
	case *ast.SelectStmt:
		return clauseBodies(n.Body)
	}
	return nil
}

func clauseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			out = append(out, c.Body)
		case *ast.CommClause:
			out = append(out, c.Body)
		}
	}
	return out
}

// reportCycles finds strongly-connected components in the acquired-while-
// held graph and reports every edge inside one, at the position the
// acquisition was observed.
func (st *lockOrderState) reportCycles() {
	if len(st.edges) == 0 {
		return
	}
	// Adjacency over the edge list (small graphs; O(V·E) reachability is
	// fine and avoids map iteration entirely).
	reaches := func(from, to types.Object) bool {
		var stack []types.Object
		var seen []types.Object
		stack = append(stack, from)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if containsObj(seen, cur) {
				continue
			}
			seen = append(seen, cur)
			for _, e := range st.edges {
				if e.from != cur {
					continue
				}
				if e.to == to {
					return true
				}
				stack = append(stack, e.to)
			}
		}
		return false
	}
	var bad []lockEdge
	for _, e := range st.edges {
		if reaches(e.to, e.from) {
			bad = append(bad, e)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].pos < bad[j].pos })
	for _, e := range bad {
		st.p.Reportf(e.pos, "lock-order cycle: %s acquired while %s is held, but the reverse order also occurs",
			objDisplay(st.p, e.to), objDisplay(st.p, e.from))
	}
}

// selectHasDefault reports whether the select statement has a default
// clause (making it non-blocking).
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
