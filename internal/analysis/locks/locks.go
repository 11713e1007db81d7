// Package locks enforces the mutex hygiene the parallel pipeline depends
// on: sync.Mutex/RWMutex values are never copied (a copied lock guards
// nothing), and every acquisition is released on every path — either by
// an immediate defer or by one unconditional unlock with no way for
// control to leave the critical section in between. A leaked lock in the
// memo singleflight behind the suite and the server deadlocks a sweep
// instead of failing it.
package locks

import (
	"go/ast"
	"go/token"
	"go/types"

	"leakbound/internal/analysis"
)

// Analyzer flags lock copies and unbalanced lock/unlock discipline.
var Analyzer = &analysis.Analyzer{
	Name: "locks",
	Doc:  "flag sync.Mutex/RWMutex value copies, and Lock calls not released by defer or by one unconditional Unlock on every path",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkSignature(pass, n)
			case *ast.AssignStmt:
				checkCopy(pass, n)
			case *ast.BlockStmt:
				checkBlock(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkSignature flags receivers and parameters that carry a lock by
// value.
func checkSignature(pass *analysis.Pass, fd *ast.FuncDecl) {
	fields := []*ast.FieldList{fd.Recv, fd.Type.Params}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			t := pass.TypesInfo.TypeOf(f.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				continue
			}
			if containsLock(t, 0) {
				pass.Reportf(f.Pos(), "%s passes a lock by value; use a pointer", fd.Name.Name)
			}
		}
	}
}

// checkCopy flags assignments that copy an existing lock-bearing value.
// Composite literals and conversions construct fresh values and are fine;
// copying an addressable expression (or a call result) is not.
func checkCopy(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) == 0 {
		return
	}
	for _, rhs := range as.Rhs {
		e := ast.Unparen(rhs)
		switch e.(type) {
		case *ast.CompositeLit, *ast.UnaryExpr, *ast.FuncLit:
			continue
		}
		t := pass.TypesInfo.TypeOf(e)
		if t == nil || !containsLock(t, 0) {
			continue
		}
		pass.Reportf(as.Pos(), "assignment copies a lock value")
	}
}

// containsLock reports whether t is or embeds a sync.Mutex or
// sync.RWMutex by value.
func containsLock(t types.Type, depth int) bool {
	if depth > 4 {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex" || obj.Name() == "WaitGroup" || obj.Name() == "Once") {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), depth+1)
	}
	return false
}

// checkBlock enforces release discipline for each Lock/RLock statement in
// a block: the next statements must reach a matching defer-unlock or a
// plain unlock without any intervening statement that could return or
// branch out of the block.
func checkBlock(pass *analysis.Pass, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		recv, rlock := lockCall(pass.TypesInfo, stmt)
		if recv == "" {
			continue
		}
		unlock := "Unlock"
		if rlock {
			unlock = "RUnlock"
		}
		if !releasedInBlock(pass.TypesInfo, block.List[i+1:], recv, unlock) {
			pass.Reportf(stmt.Pos(), "%s.%s() is not reliably released in this block: defer %s.%s() immediately, or keep one unconditional unlock with no return in between",
				recv, lockName(rlock), recv, unlock)
		}
	}
}

func lockName(rlock bool) string {
	if rlock {
		return "RLock"
	}
	return "Lock"
}

// lockCall matches an expression statement `recv.Lock()` / `recv.RLock()`
// on a sync mutex, returning the receiver's source text.
func lockCall(info *types.Info, stmt ast.Stmt) (recv string, rlock bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	return mutexMethod(info, es.X, "Lock", "RLock")
}

// mutexMethod matches a call to one of the named sync.Mutex/RWMutex
// methods, returning the receiver's source text and whether the reader
// variant matched.
func mutexMethod(info *types.Info, e ast.Expr, writer, reader string) (recv string, isReader bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	if fn.Name() != writer && fn.Name() != reader {
		return "", false
	}
	return types.ExprString(sel.X), fn.Name() == reader
}

// releasedInBlock scans the statements after a lock for its release. The
// critical section is well-formed when either a matching defer-unlock or
// an unconditional top-level unlock is reached, and every way control can
// escape before that point (return, break, continue, goto inside a
// conditional) is textually preceded by a matching release on its own
// path — the branch-local `mu.Unlock(); return` idiom the singleflight
// and admission paths use. A lock that reaches the end of the block, or
// an escape with no release before it, is a leak.
func releasedInBlock(info *types.Info, rest []ast.Stmt, recv, unlock string) bool {
	var releases []token.Pos // positions of conditional releases seen so far
	for _, stmt := range rest {
		switch s := stmt.(type) {
		case *ast.DeferStmt:
			if isUnlockOf(info, s.Call, recv, unlock) {
				return true
			}
		case *ast.ExprStmt:
			if r, _ := mutexMethod(info, s.X, unlock, unlock); r == recv {
				return true
			}
		}
		escapes, unlocks := lockEvents(info, stmt, recv, unlock)
		for _, esc := range escapes {
			if !anyBefore(releases, esc) && !anyBefore(unlocks, esc) {
				return false
			}
		}
		releases = append(releases, unlocks...)
	}
	return false
}

// lockEvents collects, within one statement (skipping nested function
// literals), the positions of control-flow escapes and of matching
// unlock calls (plain or deferred).
func lockEvents(info *types.Info, stmt ast.Stmt, recv, unlock string) (escapes, unlocks []token.Pos) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt, *ast.BranchStmt:
			escapes = append(escapes, n.Pos())
		case *ast.DeferStmt:
			if isUnlockOf(info, n.Call, recv, unlock) {
				unlocks = append(unlocks, n.Pos())
			}
		case *ast.CallExpr:
			if r, _ := mutexMethod(info, n, unlock, unlock); r == recv {
				unlocks = append(unlocks, n.Pos())
			}
		}
		return true
	})
	return escapes, unlocks
}

// anyBefore reports whether any position in ps precedes pos.
func anyBefore(ps []token.Pos, pos token.Pos) bool {
	for _, p := range ps {
		if p < pos {
			return true
		}
	}
	return false
}

// isUnlockOf matches `defer recv.Unlock()` and the closure form
// `defer func() { ...; recv.Unlock(); ... }()`.
func isUnlockOf(info *types.Info, call *ast.CallExpr, recv, unlock string) bool {
	if r, _ := mutexMethod(info, call, unlock, unlock); r == recv {
		return true
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if e, ok := n.(*ast.CallExpr); ok {
				if r, _ := mutexMethod(info, e, unlock, unlock); r == recv {
					found = true
				}
			}
			return !found
		})
		return found
	}
	return false
}
