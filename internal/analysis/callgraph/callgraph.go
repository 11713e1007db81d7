// Package callgraph builds a static call graph over the packages loaded
// by the analysis framework. Nodes are function declarations and function
// literals; edges are call sites classified as static (target known at
// compile time), interface (dynamic dispatch through an interface
// method), or function-value (dynamic call through a variable, field, or
// parameter of function type). Targets are resolved across package
// boundaries by canonical key — the per-package type-checks produce
// distinct *types.Func objects for the same function, so object identity
// cannot be used across packages.
//
// The graph is deliberately conservative and cheap: it does not attempt
// points-to analysis, so interface and function-value calls have no
// callee edge. Interprocedural analyzers treat those sites as opaque —
// hotalloc reports them on hot paths (devirtualization is part of the
// hot-path contract), determinism documents them as a soundness caveat.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"leakbound/internal/analysis"
)

// Kind classifies a call site.
type Kind int

const (
	// Static calls have a compile-time-known target: package functions,
	// methods on concrete receivers, method expressions, and immediately
	// invoked function literals.
	Static Kind = iota
	// Interface calls dispatch through an interface method set.
	Interface
	// FuncValue calls go through a variable, field, or parameter of
	// function type.
	FuncValue
)

func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	default:
		return "function-value"
	}
}

// Call is one call site inside a node's body (excluding nested function
// literals, which own their sites).
type Call struct {
	Site token.Pos
	Kind Kind
	// Callee is the target node for Static calls whose target is declared
	// in a loaded package; nil for dynamic calls and for static calls into
	// dependencies outside the program (stdlib, export data).
	Callee *Node
	// Fn is the called object for Static and Interface calls (the
	// interface method for the latter); nil for FuncValue calls.
	Fn *types.Func
	// InLoop reports whether the site sits inside a for/range statement of
	// the enclosing body — the distinction hotalloc's entry-tier markers
	// are built on.
	InLoop bool
}

// Ref is a use of a function as a value rather than a call: a function
// literal that is stored or passed, a method value, or a declared
// function referenced outside call position. Analyzers that propagate
// hotness or taint treat a ref as "the target may run wherever the value
// flows".
type Ref struct {
	Pos    token.Pos
	Target *Node
	InLoop bool
}

// Node is one function body: a declaration or a literal.
type Node struct {
	// Key is the canonical cross-package identity, "pkgpath.Name" or
	// "pkgpath.Recv.Name" for declarations and a position-derived synthetic
	// key for literals.
	Key string
	// Fn is the declared object; nil for literals.
	Fn   *types.Func
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Parent is the enclosing function node for literals; nil for
	// declarations.
	Parent *Node
	Pkg    *analysis.Package
	Calls  []Call
	Refs   []Ref
}

// Body returns the node's statement block.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the declaration or literal position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Sig returns the node's signature.
func (n *Node) Sig() *types.Signature {
	if n.Fn != nil {
		return n.Fn.Type().(*types.Signature)
	}
	if tv, ok := n.Pkg.TypesInfo.Types[n.Lit]; ok {
		if sig, ok := tv.Type.(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// String renders the node for diagnostics: "pkg.Fn", "(*T).M", or
// "function literal in pkg.Fn".
func (n *Node) String() string {
	if n.Fn != nil {
		sig := n.Fn.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			return fmt.Sprintf("(%s).%s", types.TypeString(recv.Type(), types.RelativeTo(n.Fn.Pkg())), n.Fn.Name())
		}
		return n.Fn.Pkg().Name() + "." + n.Fn.Name()
	}
	if n.Parent != nil {
		return "function literal in " + n.Parent.String()
	}
	return "function literal"
}

// Graph is the program-wide call graph. Nodes appear in deterministic
// build order (packages sorted by import path, files and declarations in
// source order, literals as encountered).
type Graph struct {
	Nodes []*Node
	byKey map[string]*Node
	byLit map[*ast.FuncLit]*Node
}

// Lookup resolves a *types.Func (from any package's type-check) to its
// node, or nil if the function is not declared in a loaded package.
func (g *Graph) Lookup(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byKey[FuncKey(fn)]
}

// FuncKey is the canonical cross-package identity of a declared function:
// "pkgpath.Name", or "pkgpath.Recv.Name" for methods (pointerness of the
// receiver is erased — a method has one body). Generic instantiations map
// to their origin declaration.
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := types.Unalias(sig.Recv().Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		name := "?"
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		} else if iface, ok := t.(*types.Interface); ok {
			name = iface.String()
		}
		return pkg + "." + name + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// Build constructs the graph over every function declared in pkgs.
func Build(pkgs []*analysis.Package) *Graph {
	g := &Graph{
		byKey: make(map[string]*Node),
		byLit: make(map[*ast.FuncLit]*Node),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Key: FuncKey(fn), Fn: fn, Decl: fd, Pkg: pkg}
				g.Nodes = append(g.Nodes, n)
				g.byKey[n.Key] = n
			}
		}
	}
	// Walk declaration bodies; literals register themselves as they are
	// found, so iterate over a snapshot.
	decls := make([]*Node, len(g.Nodes))
	copy(decls, g.Nodes)
	for _, n := range decls {
		g.walkBody(n)
	}
	return g
}

// walkBody populates n.Calls and n.Refs from its own statements, creating
// and recursively walking child nodes for nested function literals.
func (g *Graph) walkBody(n *Node) {
	body := n.Body()
	info := n.Pkg.TypesInfo

	// Pass A, in one walk: create (and recursively walk) nodes for the
	// directly nested literals, record the expressions in call-operator
	// position (so uses of functions as values can be told apart from
	// calls) and the selector Sel identifiers (handled via their
	// SelectorExpr, not as bare idents), and collect the loop spans.
	funPos := make(map[ast.Node]bool)
	selSel := make(map[*ast.Ident]bool)
	var loops spanSet
	analysis.InspectOwn(body, func(x ast.Node) {
		switch x := x.(type) {
		case *ast.FuncLit:
			pos := n.Pkg.Fset.Position(x.Pos())
			child := &Node{
				Key:    fmt.Sprintf("%s.$lit@%s:%d:%d", n.Pkg.PkgPath, pos.Filename, pos.Line, pos.Column),
				Lit:    x,
				Parent: n,
				Pkg:    n.Pkg,
			}
			g.Nodes = append(g.Nodes, child)
			g.byKey[child.Key] = child
			g.byLit[x] = child
			g.walkBody(child)
		case *ast.CallExpr:
			funPos[ast.Unparen(x.Fun)] = true
		case *ast.SelectorExpr:
			selSel[x.Sel] = true
		case *ast.ForStmt:
			loops = append(loops, span{x.Pos(), x.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{x.Pos(), x.End()})
		}
	})

	// Pass B: classify calls and refs.
	analysis.InspectOwn(body, func(x ast.Node) {
		switch x := x.(type) {
		case *ast.CallExpr:
			if c, ok := g.classifyCall(info, x); ok {
				c.InLoop = loops.contains(x.Lparen)
				n.Calls = append(n.Calls, c)
			}
		case *ast.FuncLit:
			if !funPos[x] {
				n.Refs = append(n.Refs, Ref{Pos: x.Pos(), Target: g.byLit[x], InLoop: loops.contains(x.Pos())})
			}
		case *ast.Ident:
			if funPos[x] || selSel[x] {
				return
			}
			if fn, ok := info.Uses[x].(*types.Func); ok {
				if t := g.Lookup(fn); t != nil {
					n.Refs = append(n.Refs, Ref{Pos: x.Pos(), Target: t, InLoop: loops.contains(x.Pos())})
				}
			}
		case *ast.SelectorExpr:
			if funPos[x] {
				return
			}
			var fn *types.Func
			if sel, ok := info.Selections[x]; ok {
				if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
					fn, _ = sel.Obj().(*types.Func)
				}
			} else if f, ok := info.Uses[x.Sel].(*types.Func); ok {
				fn = f // package-qualified function used as a value
			}
			if t := g.Lookup(fn); t != nil {
				n.Refs = append(n.Refs, Ref{Pos: x.Pos(), Target: t, InLoop: loops.contains(x.Pos())})
			}
		}
	})
}

// classifyCall resolves one call expression; ok is false for conversions
// and builtins, which are not calls.
func (g *Graph) classifyCall(info *types.Info, call *ast.CallExpr) (Call, bool) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return Call{}, false // conversion
	}
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: f[T](...) — unwrap to the underlying ident or
	// selector.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if _, ok := info.Uses[identOf(ix.X)].(*types.Func); ok {
			fun = ast.Unparen(ix.X)
		}
	case *ast.IndexListExpr:
		if _, ok := info.Uses[identOf(ix.X)].(*types.Func); ok {
			fun = ast.Unparen(ix.X)
		}
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		return Call{Site: call.Lparen, Kind: Static, Callee: g.byLit[fun]}, true
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			return Call{}, false
		case *types.Func:
			return Call{Site: call.Lparen, Kind: Static, Callee: g.Lookup(obj), Fn: obj}, true
		default:
			return Call{Site: call.Lparen, Kind: FuncValue}, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn, _ := sel.Obj().(*types.Func)
				if fn != nil && isInterfaceMethod(fn) {
					return Call{Site: call.Lparen, Kind: Interface, Fn: fn}, true
				}
				return Call{Site: call.Lparen, Kind: Static, Callee: g.Lookup(fn), Fn: fn}, true
			default: // FieldVal: struct field of function type
				return Call{Site: call.Lparen, Kind: FuncValue}, true
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return Call{Site: call.Lparen, Kind: Static, Callee: g.Lookup(fn), Fn: fn}, true
		}
		return Call{Site: call.Lparen, Kind: FuncValue}, true
	default:
		// Call of an arbitrary expression (index into a slice of funcs,
		// result of another call, ...).
		return Call{Site: call.Lparen, Kind: FuncValue}, true
	}
}

// isInterfaceMethod reports whether fn's receiver is an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	_, ok := sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// identOf returns the terminal identifier of an expression (the ident
// itself, or a selector's Sel), or nil.
func identOf(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// spanSet records source ranges of for/range statements for InLoop
// classification. The whole statement is treated as in-loop — the loop
// condition and post statement re-execute every iteration, and an
// allocation in a loop init is close enough to hot to deserve the flag.
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
