// Command diadslint machine-checks the repo's determinism,
// evidence-window, and telemetry contracts. It loads the packages
// matching its arguments (default ./...), runs the analyzer suite in
// internal/lint against each package's policy domain, and prints
// findings.
//
// Usage:
//
//	diadslint [-json] [-counts] [-max-suppressed N] [packages...]
//
// Exit status is 1 when any unsuppressed finding remains (including
// malformed //lint:allow directives) or the suppressed total exceeds
// -max-suppressed, 2 on load/type-check failure. Suppressed findings
// never fail the run by themselves but are always counted; -counts prints
// the per-analyzer finding/suppression totals so suppression creep stays
// visible in CI logs, and CI passes the committed ceiling as
// -max-suppressed so the total can only go down.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"diads/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "print findings and counts as JSON")
	counts := flag.Bool("counts", false, "print per-analyzer finding/suppression totals")
	maxSuppressed := flag.Int("max-suppressed", -1, "fail when more findings than this are suppressed (-1: no ceiling)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: diadslint [-json] [-counts] [-max-suppressed N] [packages...]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diadslint: %v\n", err)
		os.Exit(2)
	}
	res := lint.Run(nil, pkgs)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "diadslint: encoding result: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range res.Findings {
			mark := ""
			if f.Suppressed {
				mark = " (suppressed: " + f.Reason + ")"
			}
			fmt.Printf("%s: [%s] %s%s\n", f.Pos, f.Analyzer, f.Message, mark)
		}
	}
	if *counts && !*jsonOut {
		names := make([]string, 0, len(res.Counts))
		for name := range res.Counts {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("diadslint: %d packages\n", len(pkgs))
		for _, name := range names {
			c := res.Counts[name]
			fmt.Printf("  %-11s findings=%d suppressed=%d\n", name, c.Findings, c.Suppressed)
		}
	}
	suppressed := 0
	for _, c := range res.Counts {
		suppressed += c.Suppressed
	}
	overCeiling := *maxSuppressed >= 0 && suppressed > *maxSuppressed
	if overCeiling {
		fmt.Fprintf(os.Stderr, "diadslint: %d findings suppressed, ceiling is %d: fix the finding instead of suppressing it, and lower the ceiling when a suppression is removed\n",
			suppressed, *maxSuppressed)
	}
	if res.Failed() || overCeiling {
		os.Exit(1)
	}
}
