package lint

import (
	"flag"
	"fmt"
	"io"
)

// Exit codes of the nocvet driver. "Findings" and "could not analyze"
// are deliberately distinct so CI and scripts can tell a dirty tree
// from a broken tool invocation.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one unsuppressed finding
	ExitError    = 2 // usage error, load failure, or internal error
)

// Main is the nocvet driver: it loads the requested packages, runs the
// analyzer suite, and prints findings. Split out of cmd/nocvet so the
// exit-code and output behavior is testable in-process.
func Main(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0 on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: nocvet [-rules dettaint,…] [-sarif] packages…\n\n"+
			"Static analysis enforcing simulator determinism and invariant\n"+
			"conventions. Packages are directories or ./… patterns within the\n"+
			"module; a single run is a whole-program analysis over every\n"+
			"package it names. Suppress a finding with\n"+
			"`//nocvet:ignore <rule> <reason>` on the offending line or the\n"+
			"line above.\n\nExit codes: 0 clean, 1 findings, 2 load/internal error.\n\nAnalyzers:\n")
		for _, a := range All() {
			fmt.Fprintf(stderr, "  %-11s %s\n", a.Name(), a.Doc())
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}
	if *list {
		for _, a := range All() {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name(), a.Doc())
		}
		return ExitClean
	}
	analyzers, err := ByName(*rules)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitError
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return ExitError
	}
	loader, err := NewLoader(dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitError
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitError
	}
	findings := Run(pkgs, analyzers)
	if *sarifOut {
		if err := WriteSARIF(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "nocvet:", err)
			return ExitError
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "nocvet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return ExitFindings
	}
	return ExitClean
}
