// Package determinism flags nondeterminism hazards that can reach the
// paper's numbers. The oracle argument (Equations 1–3 and the appendix
// optimality proof) is only checkable because every run of Figure
// 7/8/Table 2 yields bit-identical energies; map iteration order,
// wall-clock reads, and random sources are the three ways Go code
// silently loses that property.
//
// The analyzer scans each call-graph node's own body once for hazards.
//
// Sinks are every function in a result-producing package plus any
// function named Digest. Inside a sink each hazard is reported in place:
// time.Now, math/rand, maps handed to fmt's print family, and
// order-sensitive work in a map range (appends without a later sort,
// floating-point accumulation, output writes). Package-level initialisers
// of result-producing packages belong to no node and are scanned the same
// way.
//
// Three hazards also taint the function they sit in: clock reads
// (time.Now, time.Since), math/rand, and unsorted appends in map order.
// Taint propagates bottom-up over the call graph and is reported at a
// sink's call site into a tainted non-sink callee, with the chain down to
// the originating source — a time.Now two helpers deep corrupts
// RESULTS.txt just as surely as one in place. A source already covered by
// a //lint:ignore determinism (or detflow, its retired alias) directive is
// treated as reviewed and does not taint, so the telemetry-timing
// suppressions in internal/experiments keep their force transitively.
//
// Soundness caveats, documented rather than papered over: taint does not
// propagate through interface or function-value calls (no points-to
// analysis), and internal/telemetry is a barrier — it reads clocks by
// design, but only observational state flows out of it, never result
// values.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"leakbound/internal/analysis"
	"leakbound/internal/analysis/callgraph"
	"leakbound/internal/analysis/summary"
)

// Analyzer flags order-, clock- and randomness-dependent constructs in
// result-producing code and the call chains that lead to them.
var Analyzer = &analysis.Analyzer{
	Name:       "determinism",
	Aliases:    []string{"detflow"},
	Doc:        "flag map-order dependence, wall-clock reads, and random sources in result-producing code, directly or through call chains",
	RunProgram: run,
}

// resultPackages matches the packages whose outputs are the paper's
// numbers; everything else (servers, CLIs, telemetry plumbing) may
// legitimately read clocks.
var resultPackages = regexp.MustCompile(`(^|/)internal/(leakage|interval|experiments|report|stats)$`)

// telemetryBarrier matches the observability layer: clock reads inside it
// are its purpose, and nothing it computes feeds results.
const telemetryBarrier = "internal/telemetry"

// hazard is one nondeterministic construct. msg is its in-place finding
// inside a sink ("" for a pure taint source such as time.Since); taint
// names what it contributes to callers ("" for a sink-local hazard such
// as a map handed to fmt).
type hazard struct {
	pos   token.Pos
	msg   string
	taint string
}

// fact is one function's taint summary: what nondeterminism is statically
// reachable from it ("" for none) and one witness route.
type fact struct {
	what  string      // "time.Now", "time.Since", "math/rand", "map iteration order"
	chain []token.Pos // call sites from this function down to the source site, then the site itself
	route []string    // node names from this function down to the source holder
}

func run(pass *analysis.ProgramPass) error {
	g := callgraph.Build(pass.Packages)
	reviewed := analysis.Directives(pass.Packages...)
	results := make(map[*analysis.Package]bool, len(pass.Packages))
	for _, pkg := range pass.Packages {
		results[pkg] = resultPackages.MatchString(pkg.PkgPath)
	}
	// A sink's results feed the paper's numbers: any function in a
	// result-producing package, or a Digest implementation anywhere.
	isSink := func(n *callgraph.Node) bool {
		return results[n.Pkg] || (n.Fn != nil && n.Fn.Name() == "Digest")
	}

	facts := summary.Compute(g,
		func(n *callgraph.Node) fact {
			var f fact
			sink, barrier := isSink(n), inTelemetry(n)
			scan(n.Pkg, n.Body(), true, func(h hazard) {
				if sink && h.msg != "" {
					pass.Reportf(h.pos, nil, "%s", h.msg)
				}
				if f.what == "" && h.taint != "" && !barrier && !reviewed.Covers(pass.Analyzer, pass.Fset.Position(h.pos)) {
					f = fact{what: h.taint, chain: []token.Pos{h.pos}, route: []string{n.String()}}
				}
			})
			return f
		},
		func(caller *callgraph.Node, f fact, call callgraph.Call, calleeFact fact) (fact, bool) {
			if f.what != "" || calleeFact.what == "" || inTelemetry(call.Callee) {
				return f, false
			}
			return fact{
				what:  calleeFact.what,
				chain: append([]token.Pos{call.Site}, calleeFact.chain...),
				route: append([]string{caller.String()}, calleeFact.route...),
			}, true
		},
	)

	for _, pkg := range pass.Packages {
		if !results[pkg] {
			continue
		}
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					scan(pkg, gd, false, func(h hazard) {
						if h.msg != "" {
							pass.Reportf(h.pos, nil, "%s", h.msg)
						}
					})
				}
			}
		}
	}

	for _, n := range g.Nodes {
		if !isSink(n) {
			continue
		}
		for _, c := range n.Calls {
			// A tainted callee that is itself a sink carries its own
			// finding — report at the deepest sink boundary only.
			if c.Callee == nil || isSink(c.Callee) {
				continue
			}
			if cf := facts[c.Callee]; cf.what != "" {
				pass.Reportf(c.Site, cf.chain, "call chain reaches %s (via %s): nondeterminism must not flow into results",
					cf.what, strings.Join(cf.route, " → "))
			}
		}
	}
	return nil
}

// scan calls emit for every hazard under root. With own set it stays out
// of nested function literals, which are call-graph nodes of their own;
// a map range's body is always searched whole, literals included.
func scan(pkg *analysis.Package, root ast.Node, own bool, emit func(hazard)) {
	info := pkg.TypesInfo
	visit := func(x ast.Node) {
		switch x := x.(type) {
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(info, x)
			switch {
			case analysis.IsPkgFunc(fn, "time", "Now"):
				emit(hazard{x.Pos(), "time.Now in result-producing package: wall clock must not influence results", "time.Now"})
			case analysis.IsPkgFunc(fn, "time", "Since"):
				emit(hazard{pos: x.Pos(), taint: "time.Since"})
			case isPrint(fn):
				for _, arg := range x.Args {
					if isMap(info.TypeOf(arg)) {
						emit(hazard{pos: arg.Pos(), msg: "map passed to fmt." + fn.Name() + ": emit results in explicitly sorted order"})
					}
				}
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if pn, ok := info.Uses[id].(*types.PkgName); ok {
					switch pn.Imported().Path() {
					case "math/rand", "math/rand/v2":
						emit(hazard{x.Pos(), "math/rand in result-producing package: randomness must not influence results", "math/rand"})
					}
				}
			}
		case *ast.RangeStmt:
			if isMap(info.TypeOf(x.X)) {
				scanMapRange(pkg, x, emit)
			}
		}
	}
	if own {
		analysis.InspectOwn(root, visit)
		return
	}
	ast.Inspect(root, func(x ast.Node) bool {
		if x != nil {
			visit(x)
		}
		return true
	})
}

// scanMapRange emits the order-sensitive work inside a map-range body:
// appends to slices that outlive the loop (unless the slice is sorted
// afterwards), floating-point accumulation into outer variables (addition
// is not associative), and output writes.
func scanMapRange(pkg *analysis.Package, rs *ast.RangeStmt, emit func(hazard)) {
	info := pkg.TypesInfo
	ast.Inspect(rs.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			scanRangeAssign(pkg, rs, x, emit)
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(info, x); isPrint(fn) {
				emit(hazard{pos: x.Pos(), msg: "fmt." + fn.Name() + " inside a map range: output depends on map iteration order"})
			} else if fn != nil && fn.Type().(*types.Signature).Recv() != nil && isWriteName(fn.Name()) {
				emit(hazard{pos: x.Pos(), msg: fn.Name() + " call inside a map range: output depends on map iteration order"})
			}
		}
		return true
	})
}

// scanRangeAssign handles the two assignment shapes inside a map range.
func scanRangeAssign(pkg *analysis.Package, rs *ast.RangeStmt, as *ast.AssignStmt, emit func(hazard)) {
	info := pkg.TypesInfo
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		for _, lhs := range as.Lhs {
			obj := lhsObject(info, lhs)
			if obj == nil || within(obj.Pos(), rs) {
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				emit(hazard{pos: as.Pos(), msg: "floating-point accumulation into " + obj.Name() + " in map iteration order: float addition is not associative"})
			}
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(info, call) || i >= len(as.Lhs) {
				continue
			}
			obj := lhsObject(info, as.Lhs[i])
			if obj == nil || within(obj.Pos(), rs) || sortedAfter(info, fileOf(pkg, rs.Pos()), rs, obj) {
				continue
			}
			emit(hazard{as.Pos(), "append to " + obj.Name() + " in map iteration order without a later sort", "map iteration order"})
		}
	}
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isPrint matches fmt's Print, Fprint and Sprint families.
func isPrint(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	name := fn.Name()
	return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Sprint")
}

func isWriteName(name string) bool {
	return name == "Write" || name == "WriteString" || name == "WriteByte" || name == "WriteRune"
}

// isBuiltinAppend matches a call to the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// lhsObject resolves the variable an assignment target refers to.
func lhsObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Defs[e]; obj != nil {
			return obj
		}
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

func within(pos token.Pos, n ast.Node) bool {
	return pos >= n.Pos() && pos <= n.End()
}

// fileOf returns the file of pkg that contains pos.
func fileOf(pkg *analysis.Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Syntax {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// sortedAfter reports whether a sort.* or slices.Sort* call mentioning obj
// in its arguments appears after the range statement anywhere in the
// file — the canonical collect-then-sort fix.
func sortedAfter(info *types.Info, file *ast.File, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if found || !ok || call.Pos() <= rs.End() {
			return !found
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort": // every exported entry point sorts
		case "slices":
			if !strings.HasPrefix(fn.Name(), "Sort") {
				return true
			}
		default:
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func inTelemetry(n *callgraph.Node) bool {
	return n != nil && analysis.PathHasSuffix(n.Pkg.PkgPath, telemetryBarrier)
}
