// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework: the Analyzer / Pass /
// Diagnostic triple, a package loader built on `go list -export` and the
// standard library's gc importer, and a runner that understands
// `//lint:ignore` suppression directives.
//
// The repo's invariants are enforced by six analyzers built on this
// package (see the subdirectories); cmd/leakbound-lint is the
// multichecker that runs them all. The framework deliberately mirrors the
// upstream API (an analyzer is a value with Name, Doc, and a Run function
// over a Pass) so that the analyzers could be ported to the real
// x/tools framework by swapping one import — the module itself stays
// dependency-free and builds hermetically, which is the same property the
// determinism analyzer exists to protect.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name (used in diagnostics and in
// //lint:ignore directives), a short doc string (surfaced by the
// multichecker's -h output), and exactly one of two run functions. Run is
// the intraprocedural shape, applied to each package in isolation.
// RunProgram is the interprocedural shape: it is invoked once with every
// loaded package, so the analyzer can build a call graph and propagate
// facts across package boundaries (see the callgraph and summary
// subpackages). Aliases are retired analyzer names whose checks were
// folded into this one: directives naming an alias still suppress its
// findings, and the multichecker's -only accepts them.
type Analyzer struct {
	Name       string
	Doc        string
	Aliases    []string
	Run        func(*Pass) (interface{}, error)
	RunProgram func(*ProgramPass) error
}

// answers reports whether name refers to the analyzer: its own name or
// one of its aliases.
func (a *Analyzer) answers(name string) bool {
	if name == a.Name {
		return true
	}
	for _, alias := range a.Aliases {
		if name == alias {
			return true
		}
	}
	return false
}

// Pass presents one package to an analyzer: its syntax trees, its
// type-checked object graph, and a Report sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is one finding at one position. Chain optionally carries the
// positions of the call sites through which an interprocedural analyzer
// reached Pos (outermost first); the runner consults //lint:ignore
// directives at every chain position as well as at Pos, so a hot-path
// suppression placed on a call site silences everything reached through
// that edge.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	Chain   []token.Pos
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ProgramPass presents the whole loaded program to an interprocedural
// analyzer: every target package (sharing one FileSet — the loader and the
// analysistest harness both guarantee it) and a Report sink. Packages are
// sorted by import path, so program analyzers see a deterministic order.
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Packages []*Package
	Report   func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos with an optional call
// chain for directive filtering.
func (p *ProgramPass) Reportf(pos token.Pos, chain []token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Chain: chain})
}
