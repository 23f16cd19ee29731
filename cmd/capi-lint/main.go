// Command capi-lint runs the capi static-analysis suite (internal/lint)
// over the module: hotpath, atomicfield, guardedby, and noexit. It is a
// whole-module checker — unlike a `go vet -vettool` unit, it loads every
// target package in one process so the hotpath traversal can follow calls
// across package boundaries.
//
// Usage:
//
//	go run ./cmd/capi-lint [-checks hotpath,guardedby] [-dir .] [patterns...]
//
// Patterns default to ./... relative to -dir. Output is vet-shaped
// (file:line:col: [analyzer] message); the exit status is 1 when any
// diagnostic fires, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"capi/internal/lint"
)

func main() {
	checks := flag.String("checks", "all", "comma-separated analyzers to run (hotpath,atomicfield,guardedby,noexit) or all")
	dir := flag.String("dir", ".", "module directory to analyze from")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: capi-lint [flags] [package patterns]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers, err := lint.Select(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capi-lint:", err)
		os.Exit(2)
	}
	fset, pkgs, err := lint.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capi-lint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capi-lint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Printf("%s:%d:%d: [%s] %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "capi-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
