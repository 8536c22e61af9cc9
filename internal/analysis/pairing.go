package analysis

import (
	"go/ast"
	"go/types"
)

// Pairing enforces the acquire/release contract the kernel's
// workspace accounting rests on: a value acquired from a package-level
// Reserve function (one whose single result has a Release method, i.e.
// kernel.Reserve's *Reservation) must not leak: the result must not be
// discarded, and a function that keeps it in a local must have Release
// reachable on every exit path — a deferred Release, a call on every
// branch before return, or handing the value off (returning it,
// storing it in a struct, passing it on), which transfers ownership to
// the recipient.
//
// The analysis is per-function and intentionally conservative inside
// loops and switches: a Release inside a loop body does not count as
// covering code after the loop (the loop may run zero times).
var Pairing = &Analyzer{
	Name: "pairing",
	Doc:  "Reserve acquisitions need Release on every exit path",
	Run:  runPairing,
}

func runPairing(prog *Program, r *Reporter) {
	for _, pkg := range prog.Packages {
		pkg.eachFuncDecl(func(fd *ast.FuncDecl) {
			checkReservePairing(pkg, fd, r)
		})
	}
}

// ---------------------------------------------------------------------
// Rule A: Reserve / Release.

// isReserveCall reports whether call acquires a releasable resource: a
// package-level function named Reserve whose single result type has a
// Release method.
func isReserveCall(info *types.Info, call *ast.CallExpr) bool {
	f := funcObj(info, call)
	if f == nil || f.Name() != "Reserve" || f.Type().(*types.Signature).Recv() != nil {
		return false
	}
	res := f.Type().(*types.Signature).Results()
	return res.Len() == 1 && hasMethod(namedOrPointee(res.At(0).Type()), "Release")
}

func checkReservePairing(pkg *Package, fd *ast.FuncDecl, r *Reporter) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		stmt, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		switch stmt := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok && isReserveCall(pkg.Info, call) {
				r.Reportf(call.Pos(), "result of %s discarded: the reservation can never be released", reserveName(pkg.Info, call))
			}
		case *ast.AssignStmt:
			if len(stmt.Rhs) != 1 || len(stmt.Lhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
			if !ok || !isReserveCall(pkg.Info, call) {
				return true
			}
			lhs, ok := stmt.Lhs[0].(*ast.Ident)
			if !ok {
				// Assigned into a field, map or slice element: ownership
				// moves to that structure's lifecycle (rt/engine store the
				// reservation and release it in Wait/Close).
				return true
			}
			if lhs.Name == "_" {
				r.Reportf(call.Pos(), "result of %s discarded: the reservation can never be released", reserveName(pkg.Info, call))
				return true
			}
			v, _ := pkg.Info.Defs[lhs].(*types.Var)
			if v == nil {
				v, _ = pkg.Info.Uses[lhs].(*types.Var)
			}
			if v == nil {
				return true
			}
			checkLocalReserve(pkg, fd, stmt, v, call, r)
		}
		return true
	})
}

func reserveName(info *types.Info, call *ast.CallExpr) string {
	if f := funcObj(info, call); f != nil {
		if f.Pkg() != nil {
			return f.Pkg().Name() + "." + f.Name()
		}
		return f.Name()
	}
	return "Reserve"
}

// checkLocalReserve verifies that local v, holding a fresh reservation
// acquired at acq, is released on every exit path of fd.
func checkLocalReserve(pkg *Package, fd *ast.FuncDecl, acq *ast.AssignStmt, v *types.Var, call *ast.CallExpr, r *Reporter) {
	// A deferred Release anywhere covers every exit, including panics.
	// Escaping the local (returning it, passing it to a call, storing
	// it) transfers ownership.
	deferred := false
	escapes := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if isReleaseCallOn(pkg.Info, n.Call, v) {
				deferred = true
			}
		case *ast.Ident:
			if pkg.Info.Uses[n] == v && escapingUse(pkg, fd, n, v) {
				escapes = true
			}
		}
		return true
	})
	if deferred || escapes {
		return
	}

	// Path-sensitive sweep of the statements after the acquisition in
	// its enclosing block (and, when that block is nested, the blocks
	// around it up to the function body).
	blocks := enclosingStmtLists(fd.Body, acq)
	if blocks == nil {
		return
	}
	// Sweep from the statement after the acquisition to the end of its
	// block, then onward through each enclosing block out to the
	// function body. Every sweep starts after the statement that
	// contains the acquisition at that nesting level.
	st := &releaseState{pkg: pkg, v: v, r: r}
	released := false
	for i := len(blocks) - 1; i >= 0; i-- {
		var terminates bool
		released, terminates = st.sweep(blocks[i].list[blocks[i].index+1:], released)
		if released || terminates {
			return
		}
	}
	r.Reportf(call.Pos(), "%s acquired into %s is not released on the fall-through path out of %s", reserveName(pkg.Info, call), v.Name(), fd.Name.Name)
}

// stmtListPos locates stmt inside nested statement lists of body.
type stmtListPos struct {
	list  []ast.Stmt
	index int
}

// enclosingStmtLists returns the chain of statement lists from the
// function body down to the one directly containing target, each with
// the index of the statement (or the statement containing target) in
// that list. Returns nil if target sits inside a loop, switch or
// function literal, where the linear sweep below would be unsound.
func enclosingStmtLists(body *ast.BlockStmt, target ast.Stmt) []stmtListPos {
	var path []stmtListPos
	var find func(list []ast.Stmt) bool
	find = func(list []ast.Stmt) bool {
		for i, s := range list {
			if s == target {
				path = append(path, stmtListPos{list, i})
				return true
			}
			if !containsNode(s, target) {
				continue
			}
			// Only descend through plain blocks and if/else arms; any
			// other container (loop, switch, select, closure) makes the
			// remainder non-linear.
			switch s := s.(type) {
			case *ast.BlockStmt:
				path = append(path, stmtListPos{list, i})
				return find(s.List)
			case *ast.IfStmt:
				path = append(path, stmtListPos{list, i})
				if containsNode(s.Body, target) {
					return find(s.Body.List)
				}
				if s.Else != nil {
					if blk, ok := s.Else.(*ast.BlockStmt); ok && containsNode(blk, target) {
						return find(blk.List)
					}
				}
				return false
			default:
				return false
			}
		}
		return false
	}
	if !find(body.List) {
		return nil
	}
	return path
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// releaseState carries the context of one linear release sweep.
type releaseState struct {
	pkg *Package
	v   *types.Var
	r   *Reporter
}

// sweep walks a statement list tracking whether v has been released,
// reporting any return reached while it has not. It returns whether v
// is released at the end of the list and whether the list terminates
// (every path returns or panics).
func (st *releaseState) sweep(list []ast.Stmt, released bool) (bool, bool) {
	for _, s := range list {
		if released {
			// Once released (or covered by a defer), the rest of the
			// function is fine.
			return true, false
		}
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isReleaseCallOn(st.pkg.Info, call, st.v) {
				released = true
			}
		case *ast.DeferStmt:
			if isReleaseCallOn(st.pkg.Info, s.Call, st.v) {
				released = true
			}
		case *ast.ReturnStmt:
			st.r.Reportf(s.Pos(), "return without releasing %s (acquired from Reserve)", st.v.Name())
			return released, true
		case *ast.BlockStmt:
			var term bool
			released, term = st.sweep(s.List, released)
			if term {
				return released, true
			}
		case *ast.IfStmt:
			bodyRel, bodyTerm := st.sweep(s.Body.List, released)
			elseRel, elseTerm := released, false
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					elseRel, elseTerm = st.sweep(e.List, released)
				case *ast.IfStmt:
					elseRel, elseTerm = st.sweep([]ast.Stmt{e}, released)
				}
			}
			if bodyTerm && elseTerm {
				return released, true
			}
			// Fall-through state: released only if every non-terminating
			// arm released.
			released = (bodyTerm || bodyRel) && (elseTerm || elseRel)
		}
		// Loops, switches and selects are opaque: releases inside them
		// may run zero times, and returns inside them are rare enough in
		// this codebase to leave to the deferred-release idiom.
	}
	return released, endsTerminating(list)
}

// endsTerminating reports whether the list's last statement certainly
// diverts control (return or panic).
func endsTerminating(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// isReleaseCallOn reports whether call is v.Release().
func isReleaseCallOn(info *types.Info, call *ast.CallExpr, v *types.Var) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == v
}

// escapingUse reports whether this use of v hands the reservation to
// someone else: returning it, passing it as a call argument, storing
// it into a composite literal, field, element or another variable, or
// taking its address. A method call on v itself is plain use, not an
// escape.
func escapingUse(pkg *Package, fd *ast.FuncDecl, id *ast.Ident, v *types.Var) bool {
	path := nodePath(fd.Body, id)
	if len(path) < 2 {
		return false
	}
	parent := path[len(path)-2]
	switch p := parent.(type) {
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	case *ast.UnaryExpr:
		return true // &v
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == ast.Expr(id) {
				return true
			}
		}
		return false
	case *ast.SelectorExpr:
		return false // v.Method(...) or v.Field
	case *ast.AssignStmt:
		for _, rhs := range p.Rhs {
			if rhs == ast.Expr(id) {
				// v on the right-hand side of any assignment other than
				// its own acquisition aliases or stores it.
				return true
			}
		}
		return false
	}
	return false
}

// nodePath returns the chain of nodes from root down to target
// (inclusive), or nil.
func nodePath(root ast.Node, target ast.Node) []ast.Node {
	var stack, path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if path != nil {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == target {
			path = append(path, stack...)
			return false
		}
		return true
	})
	return path
}
