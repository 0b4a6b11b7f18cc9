package console

import (
	"strings"
	"testing"

	"diads/internal/apg"
	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/fleet"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
	"diads/internal/workload"
)

func simulated(t *testing.T) (*testbed.Testbed, *diag.Input) {
	t.Helper()
	tb, err := testbed.NewFigure1(31)
	if err != nil {
		t.Fatal(err)
	}
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: 5},
	}
	horizon := simtime.Time(10*simtime.Minute) + simtime.Time(5*30*simtime.Minute)
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, horizon)
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	runs := tb.RunsFor("Q2")
	labels := diag.LabelByWindow(runs, simtime.NewInterval(runs[3].Start, horizon))
	in := &diag.Input{
		Query: "Q2", Runs: runs, Satisfactory: labels,
		Store: tb.Store, Cfg: tb.Cfg, Cat: tb.Cat, Opt: tb.Opt,
		Params: tb.Params, Stats: tb.Stats, Server: testbed.ServerDB,
		SymDB: symptoms.Builtin(),
	}
	return tb, in
}

func TestQueryScreenColumnsAndMarks(t *testing.T) {
	_, in := simulated(t)
	s := QueryScreen(in.Runs, in.Satisfactory)
	for _, want := range []string{"Run", "Query", "Plan", "Start time", "End time",
		"Duration", "Unsat", "[x]", "[ ]", "run-Q2-001", "[APG]", "[Workflow]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("query screen missing %q:\n%s", want, s)
		}
	}
	// Rows are time-ordered even if input is shuffled.
	shuffled := []*exec.RunRecord{in.Runs[3], in.Runs[0], in.Runs[2]}
	s2 := QueryScreen(shuffled, in.Satisfactory)
	if strings.Index(s2, "run-Q2-001") > strings.Index(s2, "run-Q2-003") {
		t.Fatalf("rows should be time ordered:\n%s", s2)
	}
}

func TestAPGScreenShowsMetricsTable(t *testing.T) {
	tb, in := simulated(t)
	g, err := apg.Build(tb.Runs[0].Plan, tb.Cfg, tb.Cat, testbed.ServerDB)
	if err != nil {
		t.Fatal(err)
	}
	run := tb.Runs[4]
	windows := []simtime.Interval{simtime.NewInterval(run.Start.Add(-300), run.Stop.Add(300))}
	s := APGScreen(g, in.Store, run, string(testbed.VolV1), windows)
	for _, want := range []string{"APG Visualization", "vol-V1", "Time", "Metric", "Value",
		"Unsat", "readIO"} {
		if !strings.Contains(s, want) {
			t.Fatalf("APG screen missing %q", want)
		}
	}
	// Unknown component degrades gracefully.
	s2 := APGScreen(g, in.Store, run, "no-such-component", nil)
	if !strings.Contains(s2, "no metrics recorded") {
		t.Fatalf("missing-component handling wrong:\n%s", s2)
	}
}

func TestWorkflowScreenProgressMarkers(t *testing.T) {
	_, in := simulated(t)
	w, err := diag.NewWorkflow(in)
	if err != nil {
		t.Fatal(err)
	}
	s0 := WorkflowScreen(w)
	if !strings.Contains(s0, "[PD ]") || !strings.Contains(s0, "(CO )") {
		t.Fatalf("initial screen wrong:\n%s", s0)
	}
	if err := w.RunPD(); err != nil {
		t.Fatal(err)
	}
	if err := w.RunCO(); err != nil {
		t.Fatal(err)
	}
	s1 := WorkflowScreen(w)
	for _, want := range []string{"[PD*]", "[CO*]", "[DA ]", "(SD )", "correlated operator set"} {
		if !strings.Contains(s1, want) {
			t.Fatalf("post-CO screen missing %q:\n%s", want, s1)
		}
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	s2 := WorkflowScreen(w)
	if !strings.Contains(s2, "[IA*]") || !strings.Contains(s2, "Module IA") {
		t.Fatalf("final screen missing IA results:\n%s", s2)
	}
}

func TestPlanScreen(t *testing.T) {
	tb, _ := simulated(t)
	s := PlanScreen(tb.Runs[0].Plan)
	if !strings.Contains(s, "signature") || !strings.Contains(s, "O25") {
		t.Fatalf("plan screen wrong:\n%s", s)
	}
}

func TestTimingPanelRendersTrace(t *testing.T) {
	_, in := simulated(t)
	res, err := diag.Diagnose(in)
	if err != nil {
		t.Fatal(err)
	}
	s := TimingPanel(res.Trace)
	for _, want := range []string{"Workflow Timing", "pipeline diads", "module", "status", "wall", "note",
		"pd", "apg", "co", "da", "cr", "sd", "ia", "ran"} {
		if !strings.Contains(s, want) {
			t.Fatalf("timing panel missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "cache") {
		t.Fatalf("timing panel has a cache column, and no module consults a cache:\n%s", s)
	}
	if s2 := TimingPanel(nil); !strings.Contains(s2, "no trace") {
		t.Fatalf("nil trace panel wrong:\n%s", s2)
	}
}

func TestFleetPanelRendersGroupedView(t *testing.T) {
	rep := &fleet.Report{
		Instances: []fleet.InstanceReport{
			{ID: "inst-0", Shared: true, Events: 4, Detected: true,
				FirstDetection: simtime.Time(100 * simtime.Minute), Incidents: 1},
			{ID: "inst-1", Shared: true, Events: 3, Detected: true,
				FirstDetection: simtime.Time(105 * simtime.Minute), Incidents: 1, Transfers: 2},
			{ID: "inst-2"},
		},
		Groups: []fleet.GroupedIncident{{
			Kind: symptoms.CauseSANMisconfig, Subject: string(testbed.VolV1), Shared: true,
			Queries: []string{"Q2"}, TotalImpact: 120, Events: 7,
			Parts: []fleet.IncidentPart{
				{Instance: "inst-0", Query: "Q2", Events: 4, Confidence: 95, Impact: 70},
				{Instance: "inst-1", Query: "Q2", Events: 3, Confidence: 90, Impact: 50},
			},
		}},
		Learning: fleet.LearnStats{
			Confirmed: 2,
			Installed: []fleet.InstalledEntry{
				{Kind: symptoms.CauseSANMisconfig + symptoms.MinedSuffix, Sources: []string{"inst-0"}},
			},
			Transfers:         2,
			TransferInstances: []string{"inst-1"},
		},
	}
	out := FleetPanel(rep)
	for _, want := range []string{
		"DIADS — Fleet",
		"san-misconfig-contention(vol-V1)",
		"inst-0",
		"shared",
		"transfers",
		"acting on:",
		"across 2 instances",
		"mined from inst-0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet panel missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(FleetPanel(nil), "no fleet report") {
		t.Error("nil report should render a placeholder")
	}
}

func TestCandidatesPanelRendersLifecycle(t *testing.T) {
	mined := symptoms.CauseSANMisconfig + symptoms.MinedSuffix
	st := fleet.LearnStats{
		Confirmed: 4, HeldOut: 2, Healthy: 3,
		Installed: []fleet.InstalledEntry{{
			Kind: mined, Sources: []string{"inst-0", "inst-1"},
			Validation: symptoms.Validation{
				Kind: mined, Verdict: symptoms.VerdictPass,
				Healthy: 3, Holdout: 2, HoldoutHigh: 2,
			},
		}},
		Pending: []fleet.PendingCandidate{{
			Kind:     "lock-contention" + symptoms.MinedSuffix,
			State:    "validated — awaiting operator review",
			Rendered: "# mined from 2/2 incidents — review before adopting\ncause lock-contention-mined scope=global {\n  100: ge(lock-anomaly:db, 0.8)\n}\n",
		}},
		Rejected: []fleet.RejectedCandidate{{
			Kind:   "noise-mined",
			Reason: "conditions hold during healthy periods: ge(ambient, 0.8)",
			Validation: symptoms.Validation{
				Conditions: []symptoms.ConditionCheck{{Expr: "ge(ambient, 0.8)", HealthyHits: 3}},
			},
		}},
	}
	out := CandidatesPanel(st)
	for _, want := range []string{
		"DIADS — Mined Candidates",
		"confirmed=4 held-out=2 healthy-corpus=3",
		"installed " + mined + " (mined from inst-0 inst-1)",
		"healthy replay 3 bases / 0 false positives, hold-out 2/2 high",
		"pending lock-contention-mined — validated — awaiting operator review",
		"cause lock-contention-mined scope=global {", // the DSL the operator acks
		"rejected noise-mined — conditions hold during healthy periods",
		"healthy-hits=3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("candidates panel missing %q:\n%s", want, out)
		}
	}
	if empty := CandidatesPanel(fleet.LearnStats{}); !strings.Contains(empty, "no candidates proposed") {
		t.Errorf("empty lifecycle should render a placeholder:\n%s", empty)
	}
}
