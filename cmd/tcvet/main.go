// Command tcvet is the repository's custom vet: a multichecker that
// runs the internal/lint analyzers over the module and reports every
// invariant violation in file:line:column form.
//
// Usage:
//
//	tcvet [flags] [package patterns]
//
// Patterns are relative to the working directory ("./...", ".",
// "./internal/wcp") or fully qualified ("treeclock/internal/vt"); the
// default is ./... . _test.go files are not analyzed: the corpora
// and unit tests deliberately construct the very patterns the
// analyzers reject.
//
// Exit status: 0 if no diagnostics were reported, 1 if any analyzer
// reported a finding, 2 on usage or load errors.
//
// The analyzers (enable/disable each with -name=false):
//
//	refpair    snapshot refcount pairing (acquire must reach Drop)
//	detrange   map-iteration order and wall-clock nondeterminism
//	clockgrow  vt.Clock Inc without a dominating Grow/capacity guard
//
// See the "Static analysis" section of the root package documentation
// for the invariant each analyzer enforces and the dynamic harness it
// backs up.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"treeclock/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: tcvet [flags] [package patterns]\n\n"+
				"Static analyzers for the treeclock runtime's invariants.\n"+
				"Patterns default to ./... from the enclosing module root.\n"+
				"Exit status: 0 clean, 1 findings, 2 usage/load error.\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "\n  %s\n", a.Name)
			for _, line := range strings.Split(a.Doc, "\n") {
				fmt.Fprintf(flag.CommandLine.Output(), "      %s\n", line)
			}
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	enabled := make(map[string]*bool)
	for _, a := range lint.All() {
		enabled[a.Name] = flag.Bool(a.Name, true, "run the "+a.Name+" analyzer")
	}
	flag.Parse()

	var analyzers []*lint.Analyzer
	for _, a := range lint.All() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "tcvet: all analyzers disabled")
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcvet:", err)
		return 2
	}
	root, modPath, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcvet:", err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := lint.ExpandPatterns(root, modPath, cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcvet:", err)
		return 2
	}
	prog, err := lint.Load(lint.LoadConfig{
		Roots: []lint.Root{{Prefix: modPath, Dir: root}},
	}, paths...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcvet:", err)
		return 2
	}
	var pkgs []*lint.Package
	for _, p := range paths {
		if pkg := prog.Package(p); pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	diags, err := lint.Run(prog, analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcvet:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
