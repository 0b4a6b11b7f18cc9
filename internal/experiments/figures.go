package experiments

import (
	"fmt"
	"strings"

	"diads/internal/apg"
	"diads/internal/console"
	"diads/internal/diag"
	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/topology"
)

// Figure1Result reproduces Figure 1: the Annotated Plan Graph for TPC-H
// Query 2 over the Figure 1 SAN.
type Figure1Result struct {
	APG       *apg.APG
	Operators int
	Leaves    int
	V1Leaves  []int
	V2Leaves  []int
	Rendering string
}

// Figure1 builds the testbed, runs Q2 once, and constructs its APG.
func Figure1(seed int64) (*Figure1Result, error) {
	sc, err := Build(S1SANMisconfig, seed)
	if err != nil {
		return nil, err
	}
	p := sc.Testbed.Runs[0].Plan
	g, err := apg.Build(p, sc.Testbed.Cfg, sc.Testbed.Cat, testbed.ServerDB)
	if err != nil {
		return nil, err
	}
	return &Figure1Result{
		APG:       g,
		Operators: p.NumOperators(),
		Leaves:    len(p.Leaves()),
		V1Leaves:  g.LeavesOnVolume(testbed.VolV1),
		V2Leaves:  g.LeavesOnVolume(testbed.VolV2),
		Rendering: g.Render(),
	}, nil
}

// Render formats the figure reproduction summary.
func (f *Figure1Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 1: Annotated Plan Graph\n")
	fmt.Fprintf(&b, "operators=%d (paper: 25)  leaves=%d (paper: 9)\n", f.Operators, f.Leaves)
	fmt.Fprintf(&b, "V1 leaves=%v  V2 leaves=%v\n\n", f.V1Leaves, f.V2Leaves)
	b.WriteString(f.Rendering)
	return b.String()
}

// Figure3Result reproduces Figure 3, the query-selection screen.
type Figure3Result struct {
	Screen string
	Rows   int
}

// Figure3 renders the query-selection screen for scenario 1's runs.
func Figure3(seed int64) (*Figure3Result, error) {
	sc, err := Build(S1SANMisconfig, seed)
	if err != nil {
		return nil, err
	}
	screen := console.QueryScreen(sc.Input.Runs, sc.Input.Satisfactory)
	return &Figure3Result{Screen: screen, Rows: len(sc.Input.Runs)}, nil
}

// Render returns the screen.
func (f *Figure3Result) Render() string { return "Figure 3: query selection screen\n" + f.Screen }

// Figure4Result reproduces Figure 4, the catalog of collected metrics.
type Figure4Result struct {
	Catalog map[metrics.Layer][]metrics.Metric
}

// Figure4 enumerates the monitoring catalog.
func Figure4() *Figure4Result {
	return &Figure4Result{Catalog: metrics.Catalog()}
}

// Render formats the catalog in Figure 4's four-column layout (stacked).
func (f *Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: Performance metrics collected by DIADS\n")
	for _, layer := range metrics.Layers() {
		fmt.Fprintf(&b, "\n%s Metrics:\n", layer)
		for _, m := range f.Catalog[layer] {
			fmt.Fprintf(&b, "  %s\n", m)
		}
	}
	return b.String()
}

// Figure5Result reproduces Figure 5, the deployment diagram, as a
// topology dump.
type Figure5Result struct {
	Rendering string
}

// Figure5 renders the testbed deployment: servers, fabric, subsystem,
// pools, volumes, and the monitoring/diagnosis components.
func Figure5(seed int64) (*Figure5Result, error) {
	tb, err := testbed.NewFigure1(seed)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("Figure 5: DIADS setup\n\n")
	b.WriteString("TPC-H queries -> PostgreSQL-like engine (srv-db) -> SAN fabric -> IBM DS6000-like subsystem\n")
	b.WriteString("monitoring -> management-tool time-series store -> DIADS diagnosis workflow\n\n")
	for _, kind := range []topology.Kind{topology.KindServer, topology.KindSwitch, topology.KindSubsystem} {
		for _, id := range tb.Cfg.All(kind) {
			fmt.Fprintf(&b, "  %s\n", tb.Cfg.MustGet(id))
		}
	}
	for _, pool := range tb.Cfg.All(topology.KindPool) {
		disks := tb.Cfg.ChildrenOfKind(pool, topology.KindDisk)
		fmt.Fprintf(&b, "  %s: %d disks, volumes %v\n",
			tb.Cfg.MustGet(pool).Name, len(disks), tb.Cfg.VolumesInPool(pool))
	}
	return &Figure5Result{Rendering: b.String()}, nil
}

// Render returns the deployment dump.
func (f *Figure5Result) Render() string { return f.Rendering }

// Figure6Result reproduces Figure 6, the APG visualization screen with
// volume V1's metrics during a run.
type Figure6Result struct {
	Screen string
}

// Figure6 renders the APG screen for an unsatisfactory scenario-1 run,
// focused on volume V1 — the paper's example shows V1's metrics from
// 12:05pm till 1:30pm with their unsatisfactory categorization.
func Figure6(seed int64) (*Figure6Result, error) {
	sc, err := Build(S1SANMisconfig, seed)
	if err != nil {
		return nil, err
	}
	g, err := apg.Build(sc.Testbed.Runs[0].Plan, sc.Testbed.Cfg, sc.Testbed.Cat, testbed.ServerDB)
	if err != nil {
		return nil, err
	}
	_, unsat := sc.Input.LabeledRuns()
	if len(unsat) == 0 {
		return nil, fmt.Errorf("experiments: scenario 1 produced no unsatisfactory runs")
	}
	var windows []simtime.Interval
	for _, r := range unsat {
		windows = append(windows, metrics.ReadWindow(simtime.NewInterval(r.Start, r.Stop)))
	}
	screen := console.APGScreen(g, sc.Testbed.Store, unsat[0], string(testbed.VolV1), windows)
	return &Figure6Result{Screen: screen}, nil
}

// Render returns the screen.
func (f *Figure6Result) Render() string { return "Figure 6: APG visualization screen\n" + f.Screen }

// Figure7Result reproduces Figure 7, the workflow screen after Module CO.
type Figure7Result struct {
	Screen string
}

// Figure7 runs the workflow interactively up to Module CO and renders the
// screen, as the paper's screenshot shows.
func Figure7(seed int64) (*Figure7Result, error) {
	sc, err := Build(S1SANMisconfig, seed)
	if err != nil {
		return nil, err
	}
	w, err := diag.NewWorkflow(sc.Input)
	if err != nil {
		return nil, err
	}
	if err := w.RunPD(); err != nil {
		return nil, err
	}
	if err := w.RunCO(); err != nil {
		return nil, err
	}
	return &Figure7Result{Screen: console.WorkflowScreen(w)}, nil
}

// Render returns the screen.
func (f *Figure7Result) Render() string {
	return "Figure 7: interactive workflow screen (after Module CO)\n" + f.Screen
}
