// Command diads is the DIADS console: it builds a scenario on the
// simulated Figure 1 testbed and renders the tool's screens — the
// query-selection table (Figure 3), the APG visualization (Figure 6), the
// diagnosis workflow (Figure 7), and the final report.
//
// Usage:
//
// -symdb FILE extends the built-in symptoms database with entries from
// an administrator-authored DSL file — including entries learned and
// persisted by diadsd's fleet learning loop, closing the loop from
// online learning back to the offline console.
//
//	diads [-scenario N] [-seed S] [-screen query|apg|workflow|timing|telemetry|report|all] [-symdb FILE]
package main

import (
	"flag"
	"fmt"
	"os"

	"diads/internal/console"
	"diads/internal/diag"
	"diads/internal/experiments"
	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
	"diads/internal/testbed"
)

func main() {
	scenario := flag.Int("scenario", 1, "scenario number (1-9, see DESIGN.md)")
	seed := flag.Int64("seed", 42, "simulation seed")
	screen := flag.String("screen", "all", "screen to render: query|apg|workflow|timing|telemetry|report|all")
	component := flag.String("component", string(testbed.VolV1), "component for the APG metric panel")
	symdb := flag.String("symdb", "", "DSL file with extra symptom entries (e.g. learned by diadsd) added to the built-in database")
	flag.Parse()

	if err := run(experiments.ScenarioID(*scenario), *seed, *screen, *component, *symdb); err != nil {
		fmt.Fprintln(os.Stderr, "diads:", err)
		os.Exit(1)
	}
}

func run(id experiments.ScenarioID, seed int64, screen, component, symdbPath string) error {
	sc, err := experiments.Build(id, seed)
	if err != nil {
		return err
	}
	if symdbPath != "" {
		data, err := os.ReadFile(symdbPath)
		if err != nil {
			return err
		}
		extra, err := symptoms.Parse(string(data))
		if err != nil {
			return fmt.Errorf("parsing %s: %w", symdbPath, err)
		}
		db := symptoms.Builtin()
		for _, e := range extra.Entries() {
			if err := db.Add(e); err != nil {
				return fmt.Errorf("entry %s from %s: %w", e.Kind, symdbPath, err)
			}
		}
		sc.Input.SymDB = db
		fmt.Printf("symptoms database extended with %d entries from %s\n", len(extra.Entries()), symdbPath)
	}
	fmt.Printf("scenario %d: %s\n%s\n\n", sc.ID, sc.Title, sc.Description)

	w, err := diag.NewWorkflow(sc.Input)
	if err != nil {
		return err
	}
	res, err := w.Run()
	if err != nil {
		return err
	}

	show := func(name string) bool { return screen == name || screen == "all" }

	if show("query") {
		fmt.Println(console.QueryScreen(sc.Input.Runs, sc.Input.Satisfactory))
	}
	if show("apg") && res.APG != nil {
		_, unsat := sc.Input.LabeledRuns()
		if len(unsat) > 0 {
			var windows []simtime.Interval
			for _, r := range unsat {
				windows = append(windows, metrics.ReadWindow(simtime.NewInterval(r.Start, r.Stop)))
			}
			fmt.Println(console.APGScreen(res.APG, sc.Input.Store, unsat[0], component, windows))
		}
	}
	if show("workflow") {
		fmt.Println(console.WorkflowScreen(w))
	}
	// Wall times differ run to run: the timing panel and the telemetry
	// snapshot go to stderr, off the report.
	if show("timing") {
		fmt.Fprintln(os.Stderr, console.TimingPanel(res.Trace))
	}
	if show("telemetry") {
		// The same snapshot render diadsd prints and /metrics serves:
		// module wall histograms and outcome counters from this run.
		fmt.Fprintln(os.Stderr, telemetry.RenderSnapshot(telemetry.Default().Snapshot()))
	}
	if show("report") {
		fmt.Println(res.Render())
	}
	return nil
}
