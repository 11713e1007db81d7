package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Finding is one reported diagnostic after directive filtering, with its
// position resolved for printing.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Timing records how long one analyzer spent across the whole run —
// summed over packages for intraprocedural analyzers, the single program
// pass for interprocedural ones.
type Timing struct {
	Name     string
	Duration time.Duration
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by file, line, column, then analyzer name — the output
// order is deterministic by construction, like everything else in this
// repo. Diagnostics suppressed by a well-formed `//lint:ignore` directive
// are dropped; malformed directives are themselves findings.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	findings, _, err := RunTimed(pkgs, analyzers)
	return findings, err
}

// RunTimed is Run, additionally reporting per-analyzer wall time in the
// analyzers' presentation order (the `make lint` timing table).
func RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []Timing, error) {
	var findings []Finding
	dirs := make(directiveSet)
	for _, pkg := range pkgs {
		bad := collectDirectives(pkg, dirs)
		findings = append(findings, bad...)
	}
	// A diagnostic survives only if no directive covers its own position
	// or any call-site position on its chain.
	keep := func(a *Analyzer, fset *token.FileSet, d Diagnostic) (Finding, bool) {
		pos := fset.Position(d.Pos)
		if dirs.suppresses(a, pos) {
			return Finding{}, false
		}
		for _, cp := range d.Chain {
			if dirs.suppresses(a, fset.Position(cp)) {
				return Finding{}, false
			}
		}
		return Finding{Analyzer: a.Name, Pos: pos, Message: d.Message}, true
	}
	elapsed := make(map[string]time.Duration, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		switch {
		case a.RunProgram != nil:
			if len(pkgs) == 0 {
				break
			}
			pass := &ProgramPass{
				Analyzer: a,
				Fset:     pkgs[0].Fset,
				Packages: pkgs,
			}
			pass.Report = func(d Diagnostic) {
				if f, ok := keep(a, pass.Fset, d); ok {
					findings = append(findings, f)
				}
			}
			if err := a.RunProgram(pass); err != nil {
				return nil, nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
			}
		default:
			for _, pkg := range pkgs {
				pass := &Pass{
					Analyzer:  a,
					Fset:      pkg.Fset,
					Files:     pkg.Syntax,
					Pkg:       pkg.Types,
					TypesInfo: pkg.TypesInfo,
				}
				pass.Report = func(d Diagnostic) {
					if f, ok := keep(a, pkg.Fset, d); ok {
						findings = append(findings, f)
					}
				}
				if _, err := a.Run(pass); err != nil {
					return nil, nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
				}
			}
		}
		elapsed[a.Name] += time.Since(start)
	}
	timings := make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		timings = append(timings, Timing{Name: a.Name, Duration: elapsed[a.Name]})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, timings, nil
}

// directivePrefix is the suppression marker: a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// suppresses diagnostics from the named analyzers on the directive's own
// line and on the line immediately below it (so it works both as an
// end-of-line comment and as a comment above the offending statement).
// The reason is mandatory: suppressions without a recorded justification
// are treated as findings. An analyzer's aliases match as its name does.
const directivePrefix = "//lint:ignore "

// directiveSet indexes suppressions by file and line.
type directiveSet map[string]map[int][]string // file -> line -> analyzer names

func (d directiveSet) suppresses(a *Analyzer, pos token.Position) bool {
	lines := d[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == "all" || a.answers(name) {
				return true
			}
		}
	}
	return false
}

// DirectiveIndex is a read-only view of the //lint:ignore directives in a
// set of packages, for analyzers that need to know whether a site has
// already been human-sanctioned (determinism treats a time.Now carrying
// one of its suppressions as a reviewed non-source rather than re-raising
// it through every caller).
type DirectiveIndex struct {
	set directiveSet
}

// Directives indexes the well-formed suppression directives of pkgs
// (malformed ones are the runner's business and are ignored here).
func Directives(pkgs ...*Package) DirectiveIndex {
	set := make(directiveSet)
	for _, pkg := range pkgs {
		collectDirectives(pkg, set)
	}
	return DirectiveIndex{set: set}
}

// Covers reports whether a directive naming the analyzer, one of its
// aliases, or "all" suppresses findings at pos.
func (ix DirectiveIndex) Covers(a *Analyzer, pos token.Position) bool {
	return ix.set.suppresses(a, pos)
}

// collectDirectives scans a package's comments for lint:ignore directives,
// merging the suppressions into dirs and returning a finding per malformed
// directive.
func collectDirectives(pkg *Package, dirs directiveSet) []Finding {
	var bad []Finding
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
				names, reason, _ := strings.Cut(rest, " ")
				pos := pkg.Fset.Position(c.Pos())
				if names == "" || strings.TrimSpace(reason) == "" {
					bad = append(bad, Finding{
						Analyzer: "directives",
						Pos:      pos,
						Message:  "malformed //lint:ignore directive: want `//lint:ignore <analyzer> <reason>`",
					})
					continue
				}
				lines := dirs[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					dirs[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], strings.Split(names, ",")...)
			}
		}
	}
	return bad
}
