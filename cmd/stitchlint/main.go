// Command stitchlint is the repo's static-analysis gate: a multichecker
// running the analyzers in internal/analysis over the tree. The
// invariants it enforces — every acquire (pooled device buffer, governor
// reservation, span, pooled aligner) released on every path, no
// blocking calls under a mutex, an acyclic cross-package lock-ordering
// graph, obs names drawn from the internal/obs registry, and no
// allocation in marked hot paths — are the load-bearing discipline of
// the paper's pipelined design that the compiler cannot check.
//
// Usage:
//
//	stitchlint [flags] [packages]
//
// With no package patterns it checks ./... from the current directory.
// Exit status is 1 if any diagnostics were reported, 2 on operational
// failure. The one way to waive a finding is a trailing or preceding
// comment
//
//	//lint:allow <analyzer> <reason>
//
// where the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hybridstitch/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stitchlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list the analyzers and exit")
		names   = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		tests   = fs.Bool("tests", true, "also analyze _test.go files")
		workdir = fs.String("C", "", "change to this directory before resolving package patterns")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: *workdir, Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "stitchlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
