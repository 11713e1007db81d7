package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"leakbound/internal/analysis"
	"leakbound/internal/analysis/callgraph"
)

// spanSet is a list of half-open source ranges.
type spanSet []span

type span struct{ lo, hi token.Pos }

func (s spanSet) contains(p token.Pos) bool {
	for _, sp := range s {
		if sp.lo <= p && p < sp.hi {
			return true
		}
	}
	return false
}

// nodeLoops returns the for/range spans of the node's own body (nested
// literals excluded) — the regions an entry-tier marker treats as
// steady-state.
func nodeLoops(n *callgraph.Node) spanSet {
	var spans spanSet
	analysis.InspectOwn(n.Body(), func(x ast.Node) {
		switch x := x.(type) {
		case *ast.ForStmt:
			spans = append(spans, span{x.Pos(), x.End()})
		case *ast.RangeStmt:
			spans = append(spans, span{x.Pos(), x.End()})
		}
	})
	return spans
}

// coldSpans computes the error-exit regions of a node's body — code that
// runs at most once per failure, never in steady state, and is therefore
// exempt from the hot-path contract. The rules are deliberately narrow:
//
//   - a return statement whose error-position result is built by
//     fmt.Errorf, errors.New, or errors.Join (constructing the error is
//     the proof this is a failure exit);
//   - the body of an if statement whose condition involves a nil
//     comparison and that terminates by returning a non-nil error-typed
//     expression (the classic validation guard);
//   - statements that panic.
//
// A fallback like `if !ok { return Evaluate(...) }` is intentionally NOT
// cold: silently taking a slow path on every call is exactly the regression
// class this analyzer exists to surface, so such code must carry an
// explicit //lint:ignore stating why the fallback is acceptable.
func coldSpans(n *callgraph.Node) spanSet {
	info := n.Pkg.TypesInfo
	var spans spanSet
	analysis.InspectOwn(n.Body(), func(x ast.Node) {
		switch x := x.(type) {
		case *ast.ReturnStmt:
			if returnsConstructedError(info, x) {
				spans = append(spans, span{x.Pos(), x.End()})
			}
		case *ast.IfStmt:
			if hasNilComparison(x.Cond) && exitsWithError(info, x.Body) {
				spans = append(spans, span{x.Body.Pos(), x.Body.End()})
			}
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok && isPanic(info, call) {
				spans = append(spans, span{x.Pos(), x.End()})
			}
		}
	})
	return spans
}

// returnsConstructedError reports whether any result expression is a
// direct call to an error constructor.
func returnsConstructedError(info *types.Info, ret *ast.ReturnStmt) bool {
	for _, res := range ret.Results {
		call, ok := ast.Unparen(res).(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			continue
		}
		switch fn.Pkg().Path() + "." + fn.Name() {
		case "fmt.Errorf", "errors.New", "errors.Join":
			return true
		}
	}
	return false
}

// hasNilComparison reports whether the expression contains an == or !=
// against nil.
func hasNilComparison(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(x ast.Node) bool {
		if b, ok := x.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
			if isNilIdent(b.X) || isNilIdent(b.Y) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// exitsWithError reports whether the block's final statement is a return
// carrying a non-nil error-typed expression, or a panic.
func exitsWithError(info *types.Info, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		for _, res := range last.Results {
			if isNilIdent(res) {
				continue
			}
			if tv, ok := info.Types[res]; ok && tv.Type != nil && analysis.IsErrorType(tv.Type) {
				return true
			}
		}
		return false
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		return ok && isPanic(info, call)
	}
	return false
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
