// Package lint implements tcvet's static analyzers: custom passes that
// enforce, at vet time, the runtime invariants the rest of the repo can
// only check dynamically (differential tests, crash-equivalence
// harnesses, refcount audits).
//
// The package deliberately mirrors a small slice of the
// golang.org/x/tools/go/analysis API — Analyzer, Pass, Diagnostic —
// so the analyzers read like standard vet passes and could be ported
// to the real framework verbatim. The module has no dependencies, so
// the driver (Load, Run) is built on the standard library alone:
// go/parser + go/types, with stdlib imports resolved from GOROOT
// source via importer.ForCompiler(fset, "source", nil). That keeps
// `go run ./cmd/tcvet ./...` working in an offline sandbox.
//
// The three analyzers and the invariants they encode:
//
//   - refpair (refpair.go): snapshot references acquired from a
//     SnapStore must reach Drop or a documented ownership transfer on
//     every path.
//   - detrange (detrange.go): no unsorted map iteration may flow into
//     checkpoint encoders or codecs, reports, or accumulated slices; no
//     wall-clock or math/rand in replica-deterministic packages.
//   - clockgrow (clockgrow.go): no Inc on a freshly created clock slot
//     without a dominating Grow/Init or capacity guard.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static analysis pass.
type Analyzer struct {
	Name string // command-line name and diagnostic tag
	Doc  string // one-paragraph description, shown by tcvet -h
	Run  func(*Pass) error
}

// A Pass is the interface between the driver and one analyzer run on
// one package. Report may be called concurrently only if the analyzer
// itself spawns goroutines (none do).
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	Report   func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// A Package is one type-checked package: its syntax, its types, and a
// back-pointer to the program it was loaded into.
type Package struct {
	Path  string // import path ("treeclock/internal/vt", or corpus path "detrange")
	Files []*ast.File
	Types *types.Package
	prog  *Program
}

// Fset returns the file set all of the package's positions refer to.
func (p *Package) Fset() *token.FileSet { return p.prog.Fset }

// Info returns the program-wide type info (shared across packages).
func (p *Package) Info() *types.Info { return p.prog.Info }

// A Program is a set of type-checked packages sharing one FileSet and
// one types.Info, so analyzers can follow references across package
// boundaries.
type Program struct {
	Fset *token.FileSet
	Info *types.Info

	pkgs map[string]*Package // by import path
}

// Packages returns all loaded local packages, sorted by import path.
// Packages pulled in from GOROOT are type-checked but not retained.
func (prog *Program) Packages() []*Package {
	out := make([]*Package, 0, len(prog.pkgs))
	for _, p := range prog.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Package returns the loaded package with the given import path, or nil.
func (prog *Program) Package(path string) *Package { return prog.pkgs[path] }

// Run applies each analyzer to each of the given packages and returns
// the diagnostics sorted by position. Diagnostics in _test.go files
// are kept; callers that want vet-style behavior filter them (tcvet
// does not load test files at all).
func Run(prog *Program, analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Prog:     prog,
				Pkg:      pkg,
				Report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// All returns the three tcvet analyzers in their canonical order.
func All() []*Analyzer {
	return []*Analyzer{Refpair, Detrange, Clockgrow}
}
