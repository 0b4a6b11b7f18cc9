// Command diadsbench regenerates every table and figure of the paper's
// evaluation, printing the same rows the paper reports (Table 1, Table 2,
// Figures 1 and 3-7) plus the observation studies and ablations indexed in
// DESIGN.md.
//
// Usage:
//
//	diadsbench [-seed S] [-only table1|table2|fig1|fig3|fig4|fig5|fig6|fig7|kde|baselines|sd|ablations|selfheal|robustness]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"diads/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 42, "simulation seed")
	only := flag.String("only", "", "run a single experiment (default: all)")
	flag.Parse()

	if err := run(os.Stdout, *seed, *only); err != nil {
		fmt.Fprintln(os.Stderr, "diadsbench:", err)
		os.Exit(1)
	}
}

type experiment struct {
	name string
	run  func(seed int64) (interface{ Render() string }, error)
}

func run(w io.Writer, seed int64, only string) error {
	all := []experiment{
		{"table1", func(s int64) (interface{ Render() string }, error) { return experiments.Table1(s) }},
		{"table2", func(s int64) (interface{ Render() string }, error) { return experiments.Table2(s) }},
		{"fig1", func(s int64) (interface{ Render() string }, error) { return experiments.Figure1(s) }},
		{"fig3", func(s int64) (interface{ Render() string }, error) { return experiments.Figure3(s) }},
		{"fig4", func(s int64) (interface{ Render() string }, error) { return experiments.Figure4(), nil }},
		{"fig5", func(s int64) (interface{ Render() string }, error) { return experiments.Figure5(s) }},
		{"fig6", func(s int64) (interface{ Render() string }, error) { return experiments.Figure6(s) }},
		{"fig7", func(s int64) (interface{ Render() string }, error) { return experiments.Figure7(s) }},
		{"kde", func(s int64) (interface{ Render() string }, error) { return experiments.KDERobustness(s), nil }},
		{"baselines", func(s int64) (interface{ Render() string }, error) { return experiments.Baselines(s) }},
		{"sd", func(s int64) (interface{ Render() string }, error) { return experiments.IncompleteSymptomsDB(s) }},
		{"ablations", func(s int64) (interface{ Render() string }, error) { return experiments.Ablations(s) }},
		{"selfheal", func(s int64) (interface{ Render() string }, error) { return experiments.SelfHeal(s) }},
		{"robustness", func(s int64) (interface{ Render() string }, error) { return experiments.SeedRobustness(s, 4) }},
	}
	ran := 0
	for _, e := range all {
		if only != "" && e.name != only {
			continue
		}
		res, err := e.run(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(w, "==== %s ====\n%s\n%s\n", e.name, res.Render(), strings.Repeat("=", 72))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", only)
	}
	return nil
}
