// Package ctxpair guards the context discipline and the sibling
// contracts that keep the public API surface honest:
//
// Context pairs. Every Foo with a FooContext sibling (same package, same
// receiver) exists only for call-site convenience; its body must be the
// sanctioned single-statement wrapper
//
//	return FooContext(context.Background(), ...)
//
// (context.TODO() also accepted). Anything else is a drifted duplicate —
// two bodies that started identical and will not stay that way.
//
// Context flow. Once a caller holds a ctx it must stay on the ...Context
// spine: an exported ctx-accepting function that calls Foo while a
// FooContext sibling exists silently severs cancellation for a whole
// subtree. And library code never mints its own background context —
// context.Background/TODO in an internal non-main package is a finding
// unless the function's body is its own sibling delegation above. (The
// loader reads only non-test sources, so tests are exempt by
// construction.)
//
// Registry factories. Every leakage.Registration.Factory must construct
// policies that are actually reachable from the aggregate fast path: the
// closed-form dispatch in EvaluateAggregate is a `p.(ClosedForm)` type
// assertion, so a factory that returns a value of T while ClosedForm is
// implemented on *T silently falls back to per-bucket evaluation on every
// sweep — the exact regression class the ~160× aggregate kernels exist to
// prevent. The analyzer resolves each factory's concrete return types
// (through function literals and named constructors alike) and flags:
// value/pointer method-set mismatches, interface-typed returns it cannot
// verify, builtin (in-package) policies with no ClosedForm at all, and
// ClosedForm policies that implement MissModel but not MissClosedForm
// (the miss-curve sweep would quietly take the slow path).
//
// Interface lookups deliberately go through each registration's own view
// of the leakage package (composite-literal type → defining package), so
// the checks work identically for source-typed and export-data imports.
package ctxpair

import (
	"go/ast"
	"go/types"
	"strings"

	"leakbound/internal/analysis"
	"leakbound/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name:       "ctxpair",
	Aliases:    []string{"ctxflow"},
	Doc:        "require Foo/FooContext delegation, no dropped or library-minted contexts, and statically-dispatchable registry factories",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	g := callgraph.Build(pass.Packages)
	for _, pkg := range pass.Packages {
		checkPairs(pass, pkg)
		checkRegistrations(pass, g, pkg)
	}
	return nil
}

// checkPairs enforces the delegation contract and the context flow rules
// within one package.
func checkPairs(pass *analysis.ProgramPass, pkg *analysis.Package) {
	type key struct{ recv, name string }
	type decl struct {
		key
		fd *ast.FuncDecl
	}
	var fds []decl
	byKey := make(map[key]*ast.FuncDecl)
	for _, f := range pkg.Syntax {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				k := key{recvTypeName(pkg, fd), fd.Name.Name}
				fds = append(fds, decl{k, fd})
				byKey[k] = fd
			}
		}
	}
	library := strings.Contains(pkg.PkgPath, "internal/") && pkg.Name != "main"
	for _, d := range fds {
		delegating := false
		if sibling, ok := byKey[key{d.recv, d.name + "Context"}]; ok && !strings.HasSuffix(d.name, "Context") {
			if sibFn, _ := pkg.TypesInfo.Defs[sibling.Name].(*types.Func); sibFn != nil {
				delegating = delegates(pkg.TypesInfo, d.fd, sibFn)
				if !delegating {
					pass.Reportf(d.fd.Pos(), nil,
						"%s has a %s sibling but does not delegate to it: the body must be exactly `return %s(context.Background(), ...)` so the pair cannot drift",
						d.name, d.name+"Context", d.name+"Context")
				}
			}
		}
		if library && !delegating {
			checkBackground(pass, pkg.TypesInfo, d.fd)
		}
		checkDroppedContext(pass, pkg.TypesInfo, d.fd)
	}
}

// checkBackground flags every context.Background/TODO call in fd.
func checkBackground(pass *analysis.ProgramPass, info *types.Info, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fn := analysis.CalleeFunc(info, call)
			if analysis.IsPkgFunc(fn, "context", "Background") || analysis.IsPkgFunc(fn, "context", "TODO") {
				pass.Reportf(call.Pos(), nil, "context.%s in library package: accept a ctx from the caller", fn.Name())
			}
		}
		return true
	})
}

// checkDroppedContext flags calls inside an exported context-accepting
// function that invoke the non-context variant of an API that has a
// ...Context sibling.
func checkDroppedContext(pass *analysis.ProgramPass, info *types.Info, fd *ast.FuncDecl) {
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok || !fd.Name.IsExported() || !analysis.HasContextParam(obj.Type().(*types.Signature)) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeFunc(info, call)
		if callee == nil || strings.HasSuffix(callee.Name(), "Context") || analysis.HasContextParam(callee.Type().(*types.Signature)) {
			return true
		}
		if sib := contextSibling(callee); sib != nil {
			pass.Reportf(call.Pos(), nil, "calls %s while holding a ctx; %s accepts it", callee.Name(), sib.Name())
		}
		return true
	})
}

// contextSibling returns the ...Context variant of fn — a function of the
// same package (or method of the same receiver type) named fn+"Context"
// whose first parameter is a context.Context — or nil.
func contextSibling(fn *types.Func) *types.Func {
	sibName := fn.Name() + "Context"
	var obj types.Object
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), sibName)
	} else if fn.Pkg() != nil {
		obj = fn.Pkg().Scope().Lookup(sibName)
	}
	sib, ok := obj.(*types.Func)
	if !ok || !analysis.HasContextParam(sib.Type().(*types.Signature)) {
		return nil
	}
	return sib
}

// delegates reports whether fd's body is the sanctioned single-statement
// wrapper around its Context sibling.
func delegates(info *types.Info, fd *ast.FuncDecl, sibling *types.Func) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	var call *ast.CallExpr
	switch st := fd.Body.List[0].(type) {
	case *ast.ReturnStmt:
		if len(st.Results) != 1 {
			return false
		}
		call, _ = ast.Unparen(st.Results[0]).(*ast.CallExpr)
	case *ast.ExprStmt:
		call, _ = st.X.(*ast.CallExpr)
	}
	if call == nil {
		return false
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || callgraph.FuncKey(fn) != callgraph.FuncKey(sibling) {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	ctxFn := analysis.CalleeFunc(info, first)
	return analysis.IsPkgFunc(ctxFn, "context", "Background") || analysis.IsPkgFunc(ctxFn, "context", "TODO")
}

// recvTypeName returns the receiver's type name with pointerness erased.
func recvTypeName(pkg *analysis.Package, fd *ast.FuncDecl) string {
	fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkRegistrations finds leakage.Registration composite literals in pkg
// and validates their factories' returned policy types.
func checkRegistrations(pass *analysis.ProgramPass, g *callgraph.Graph, pkg *analysis.Package) {
	info := pkg.TypesInfo
	for _, f := range pkg.Syntax {
		ast.Inspect(f, func(x ast.Node) bool {
			cl, ok := x.(*ast.CompositeLit)
			if !ok {
				return true
			}
			named := namedType(info, cl)
			if named == nil || named.Obj().Name() != "Registration" || named.Obj().Pkg() == nil ||
				!analysis.PathHasSuffix(named.Obj().Pkg().Path(), "internal/leakage") {
				return true
			}
			leak := named.Obj().Pkg() // the leakage package in this pkg's universe
			name, factory := registrationFields(info, cl)
			if factory == nil {
				return true
			}
			body, bodyInfo := factoryBody(g, pkg, factory)
			if body == nil {
				return true // external constructor: out of analysis reach
			}
			checkFactoryReturns(pass, bodyInfo, leak, name, body, pkg.PkgPath == leak.Path())
			return true
		})
	}
}

// checkFactoryReturns validates every policy value the factory can return.
func checkFactoryReturns(pass *analysis.ProgramPass, info *types.Info, leak *types.Package, name string, body *ast.BlockStmt, builtin bool) {
	closedForm := ifaceLookup(leak, "ClosedForm")
	missClosed := ifaceLookup(leak, "MissClosedForm")
	missModel := ifaceLookup(leak, "MissModel")
	analysis.InspectOwn(body, func(x ast.Node) {
		ret, ok := x.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return
		}
		res := ret.Results[0]
		tv, ok := info.Types[res]
		if !ok || tv.IsNil() || tv.Type == nil {
			return
		}
		t := tv.Type
		if _, isIface := t.Underlying().(*types.Interface); isIface {
			pass.Reportf(res.Pos(), nil,
				"factory for %q returns an interface-typed value (%s): the closed-form dispatch in EvaluateAggregate cannot be statically verified",
				name, relType(t))
			return
		}
		if closedForm == nil {
			return
		}
		switch {
		case types.Implements(t, closedForm):
			if missModel != nil && missClosed != nil &&
				types.Implements(t, missModel) && !types.Implements(t, missClosed) {
				pass.Reportf(res.Pos(), nil,
					"factory for %q returns %s, which implements ClosedForm and MissModel but not MissClosedForm: induced-miss sweeps silently fall back to per-bucket evaluation",
					name, relType(t))
			}
		case implementsViaPointer(t, closedForm):
			pass.Reportf(res.Pos(), nil,
				"factory for %q returns %s by value but ClosedForm is implemented on *%s: EvaluateAggregate's dispatch will silently fall back to per-bucket evaluation",
				name, relType(t), relType(t))
		case builtin:
			pass.Reportf(res.Pos(), nil,
				"builtin factory for %q returns %s, which has no ClosedForm: every aggregate sweep takes the slow path",
				name, relType(t))
		}
	})
}

// factoryBody resolves a Factory field expression to the function body
// that constructs policies, plus the TypesInfo that body was checked
// under — a literal in place, or a named constructor declared anywhere in
// the program.
func factoryBody(g *callgraph.Graph, pkg *analysis.Package, factory ast.Expr) (*ast.BlockStmt, *types.Info) {
	switch e := ast.Unparen(factory).(type) {
	case *ast.FuncLit:
		return e.Body, pkg.TypesInfo
	case *ast.Ident, *ast.SelectorExpr:
		var fn *types.Func
		switch e := e.(type) {
		case *ast.Ident:
			fn, _ = pkg.TypesInfo.Uses[e].(*types.Func)
		case *ast.SelectorExpr:
			fn, _ = pkg.TypesInfo.Uses[e.Sel].(*types.Func)
		}
		if n := g.Lookup(fn); n != nil && n.Decl != nil {
			return n.Decl.Body, n.Pkg.TypesInfo
		}
	}
	return nil, nil
}

// registrationFields extracts the Name literal (for messages) and the
// Factory expression from a Registration composite literal.
func registrationFields(info *types.Info, cl *ast.CompositeLit) (string, ast.Expr) {
	name := "?"
	var factory ast.Expr
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Name":
			if tv, ok := info.Types[kv.Value]; ok && tv.Value != nil {
				name = strings.Trim(tv.Value.String(), `"`)
			}
		case "Factory":
			factory = kv.Value
		}
	}
	return name, factory
}

func namedType(info *types.Info, cl *ast.CompositeLit) *types.Named {
	tv, ok := info.Types[cl]
	if !ok || tv.Type == nil {
		return nil
	}
	named, _ := types.Unalias(tv.Type).(*types.Named)
	return named
}

func ifaceLookup(pkg *types.Package, name string) *types.Interface {
	tn, _ := pkg.Scope().Lookup(name).(*types.TypeName)
	if tn == nil {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

func implementsViaPointer(t types.Type, iface *types.Interface) bool {
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return false
	}
	return types.Implements(types.NewPointer(t), iface)
}

func relType(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
