package lint

import (
	"go/ast"
	"go/types"
)

// This file holds the AST/type plumbing of the lockorder analyzer (and
// calleeOf, which maporder shares): resolving call targets to in-package
// bodies, classifying sync-package calls, and naming mutex identities for
// diagnostics.
//
// The approximation: analysis is per package (the driver runs it over
// every module package, but call edges into other packages are invisible —
// only export data exists for dependencies), function values resolve only
// when they are package functions or methods with in-package declarations,
// and func literals are analyzed as their own entry points rather than
// inlined at the site that creates them (a closure handed to AfterFunc runs
// later, on another goroutine, under different locks than its birthplace).

// funcBodies maps every function and method *declared in this package* to
// its body, keyed by types object — the resolution table for intra-package
// call edges.
func funcBodies(p *Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				out[obj] = fd
			}
		}
	}
	return out
}

// calleeOf resolves a call expression to the *types.Func it statically
// invokes: a package function, or a method named through a concrete
// receiver. Interface methods resolve to the interface's method object,
// which deliberately matches no in-package declaration; func-typed values
// resolve to nil.
func calleeOf(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// syncCallKind classifies the sync-package calls lockorder acts on; every
// other sync call is syncNone.
type syncCallKind int

const (
	syncNone      syncCallKind = iota
	syncLock                   // Mutex.Lock, RWMutex.Lock/RLock
	syncUnlock                 // Mutex.Unlock, RWMutex.Unlock/RUnlock
	syncWaitGroup              // WaitGroup.Wait: blocks until the group drains
)

// classifySyncCall identifies lock, unlock and WaitGroup.Wait calls,
// returning the kind and, for lock/unlock, the identity of the mutex
// operand (see lockIdentity).
func classifySyncCall(p *Pass, call *ast.CallExpr) (syncCallKind, types.Object) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return syncNone, nil
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return syncNone, nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return syncNone, nil
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return syncNone, nil
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		switch fn.Name() {
		case "Lock", "RLock":
			return syncLock, lockIdentity(p, sel.X)
		case "Unlock", "RUnlock":
			return syncUnlock, lockIdentity(p, sel.X)
		}
	case "WaitGroup":
		if fn.Name() == "Wait" {
			return syncWaitGroup, nil
		}
	}
	return syncNone, nil
}

// lockIdentity names a mutex operand by its declaration: a struct field
// keys every instance of that type to one identity (the lock *role*, which
// is what an ordering discipline is about), a variable keys itself.
// Expressions the analysis cannot name (map index, call result) yield nil
// and are not tracked.
func lockIdentity(p *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.Info.Uses[e]
	case *ast.SelectorExpr:
		return p.Info.Uses[e.Sel]
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return lockIdentity(p, e.X)
		}
	}
	return nil
}

// objDisplay renders a lock identity for diagnostics: fields as
// "Type.field" (via the declared receiver struct), variables by name.
func objDisplay(p *Pass, obj types.Object) string {
	v, ok := obj.(*types.Var)
	if ok && v.IsField() {
		if owner := fieldOwner(p, v); owner != "" {
			return owner + "." + v.Name()
		}
	}
	return obj.Name()
}

// fieldOwner finds the named struct type declaring field v, scanning the
// package's type declarations (types.Var carries no back-pointer).
func fieldOwner(p *Pass, v *types.Var) string {
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return ""
}
