package diag

import (
	"math"
	"strings"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/exec"
	"diads/internal/faults"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
	"diads/internal/workload"
)

// scenarioRig builds a Figure 1 testbed with `runs` Q2 executions; the
// caller injects faults before calling simulate.
func scenarioRig(t testing.TB, seed int64, runs int) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.NewFigure1(seed)
	if err != nil {
		t.Fatal(err)
	}
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: runs},
	}
	horizon := simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(runs)*30*simtime.Minute)
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, horizon)
	}
	return tb
}

// horizonOf returns the end of run schedule windows for a rig with the
// given run count.
func horizonOf(runs int) simtime.Time {
	return simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(runs)*30*simtime.Minute)
}

// faultMidpoint returns a fault onset that splits the schedule in half.
func faultMidpoint(runs int) simtime.Time {
	return simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(runs/2)*30*simtime.Minute) - simtime.Time(5*simtime.Minute)
}

// inputFor assembles a diagnosis input from a simulated testbed with
// adaptive labels.
func inputFor(tb *testbed.Testbed) *Input {
	runs := tb.RunsFor("Q2")
	return &Input{
		Query:        "Q2",
		Runs:         runs,
		Satisfactory: LabelAdaptive(runs, 1.6),
		Store:        tb.Store,
		Cfg:          tb.Cfg,
		Cat:          tb.Cat,
		Opt:          tb.Opt,
		Params:       tb.Params,
		Stats:        tb.Stats,
		Server:       testbed.ServerDB,
		SymDB:        symptoms.Builtin(),
	}
}

// runScenario1 injects the paper's first scenario: volume V' carved from
// P1, mapped to another host, with its workload contending against V1.
func runScenario1(t testing.TB, seed int64, runs int) *testbed.Testbed {
	t.Helper()
	tb := scenarioRig(t, seed, runs)
	fault := &faults.SANMisconfiguration{
		At:        faultMidpoint(runs),
		Until:     horizonOf(runs),
		Pool:      testbed.PoolP1,
		NewVolume: "vol-Vp",
		Host:      testbed.ServerApp1,
		ReadIOPS:  450,
		WriteIOPS: 120,
	}
	if err := faults.Inject(tb, fault); err != nil {
		t.Fatal(err)
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestScenario1EndToEnd(t *testing.T) {
	tb := runScenario1(t, 11, 16)
	in := inputFor(tb)
	res, err := Diagnose(in)
	if err != nil {
		t.Fatal(err)
	}

	// Module PD: same plan in both regimes.
	if res.PD.Changed {
		t.Fatalf("scenario 1 must not involve a plan change")
	}

	// Module CO: both V1 leaves in the COS, most V2 leaves out.
	for _, id := range []int{8, 22} {
		if !res.CO.InCOS(id) {
			t.Errorf("O%d (V1 leaf) should be in the COS; score %.3f", id, res.CO.ScoreOf(id))
		}
	}
	v2Leaves := []int{10, 13, 15, 19, 23, 25}
	v2InCOS := 0
	for _, id := range v2Leaves {
		if res.CO.InCOS(id) {
			v2InCOS++
		}
	}
	if v2InCOS > 2 {
		t.Errorf("most V2 leaves should stay out of the COS, got %d in", v2InCOS)
	}
	// Event propagation: the ancestors inflate too.
	for _, id := range []int{2, 3, 6, 7, 17, 18, 20, 21} {
		if !res.CO.InCOS(id) {
			t.Errorf("ancestor O%d should be in the COS; score %.3f", id, res.CO.ScoreOf(id))
		}
	}

	// Module DA: V1 metrics anomalous, V2's not.
	v1Max := res.DA.ScoreOf(string(testbed.VolV1), "writeTime")
	if v1Max < 0.8 {
		t.Errorf("V1 writeTime anomaly should exceed 0.8, got %.3f", v1Max)
	}
	if s := res.DA.ScoreOf(string(testbed.VolV2), "writeTime"); s > 0.8 {
		t.Errorf("V2 writeTime should stay calm, got %.3f", s)
	}

	// Module CR: no data-property change.
	if len(res.CR.CRS) != 0 {
		t.Errorf("record counts should be stable, CRS=%v", res.CR.CRS)
	}

	// Module SD: SAN misconfiguration on V1 is the top, high-confidence
	// cause.
	top, ok := res.TopCause()
	if !ok {
		t.Fatal("no cause identified")
	}
	if top.Cause.Kind != symptoms.CauseSANMisconfig || top.Cause.Subject != string(testbed.VolV1) {
		t.Fatalf("top cause: got %v, want SAN misconfiguration on vol-V1\n%s", top.Cause, res.Render())
	}
	if top.Cause.Category != symptoms.High {
		t.Fatalf("scenario 1 should reach high confidence: %v", top.Cause)
	}

	// Module IA: the paper reports a 99.8%% impact score; ours must be
	// dominant (> 80%).
	if top.Score < 80 {
		t.Fatalf("impact score should dominate, got %.1f%%\n%s", top.Score, res.Render())
	}

	// V2 causes stay low-confidence and out of the IA items.
	for _, item := range res.IA.Items {
		if item.Cause.Subject == string(testbed.VolV2) {
			t.Errorf("V2 cause should not reach impact analysis: %v", item.Cause)
		}
	}

	// The report renders the essentials.
	report := res.Render()
	for _, want := range []string{"Module PD", "Module CO", "san-misconfig-contention", "impact"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestScenario3DataPropertyChange(t *testing.T) {
	tb := scenarioRig(t, 12, 16)
	fault := &faults.DataPropertyChange{
		At:     faultMidpoint(16),
		Table:  dbsys.TPartsupp,
		Factor: 1.8,
	}
	if err := faults.Inject(tb, fault); err != nil {
		t.Fatal(err)
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	in := inputFor(tb)
	res, err := Diagnose(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.PD.Changed {
		t.Fatalf("stale statistics keep the plan stable in scenario 3")
	}
	// CR flags the partsupp operators.
	if len(res.CR.CRS) == 0 {
		t.Fatalf("CR should flag record-count changes\n%s", res.Render())
	}
	top, ok := res.TopCause()
	if !ok {
		t.Fatal("no cause identified")
	}
	if top.Cause.Kind != symptoms.CauseDataProperty || top.Cause.Subject != dbsys.TPartsupp {
		t.Fatalf("top cause: got %v, want data-property-change on partsupp\n%s", top.Cause, res.Render())
	}
	// IA rules out volume contention as a root cause: any volume-
	// contention hypothesis must rank below the data-property cause.
	for _, item := range res.IA.Items {
		if item.Cause.Kind == symptoms.CauseSANMisconfig && item.Cause.Category == symptoms.High {
			t.Errorf("no SAN misconfiguration should reach high confidence: %v", item.Cause)
		}
	}
}

func TestScenario5LockContention(t *testing.T) {
	runs := 16
	tb := scenarioRig(t, 13, runs)
	// Exclusive locks held during the unsatisfactory half's run windows.
	var holds []simtime.Interval
	for i := runs / 2; i < runs; i++ {
		start := simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(i)*30*simtime.Minute)
		holds = append(holds, simtime.NewInterval(start.Add(-time30s()), start.Add(90)))
	}
	fault := &faults.TableLockContention{Table: dbsys.TPartsupp, Holds: holds, Holder: "txn-batch"}
	if err := faults.Inject(tb, fault); err != nil {
		t.Fatal(err)
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	res, err := Diagnose(inputFor(tb))
	if err != nil {
		t.Fatal(err)
	}
	top, ok := res.TopCause()
	if !ok {
		t.Fatal("no cause identified")
	}
	if top.Cause.Kind != symptoms.CauseLockContention || top.Cause.Subject != dbsys.TPartsupp {
		t.Fatalf("top cause: got %v, want lock contention on partsupp\n%s", top.Cause, res.Render())
	}
	// Volume contention, if hypothesized at all, has low impact — the
	// paper's scenario 5 outcome.
	for _, item := range res.IA.Items {
		if item.Cause.Kind == symptoms.CauseSANMisconfig || item.Cause.Kind == symptoms.CauseExternalLoad {
			if item.Score > 50 {
				t.Errorf("volume contention should have low impact, got %.1f%% for %v",
					item.Score, item.Cause)
			}
		}
	}
}

func TestPlanRegressionViaPD(t *testing.T) {
	runs := 12
	tb := scenarioRig(t, 14, runs)
	fault := &faults.IndexDrop{At: faultMidpoint(runs), Index: dbsys.IdxPartsuppPart}
	if err := faults.Inject(tb, fault); err != nil {
		t.Fatal(err)
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	res, err := Diagnose(inputFor(tb))
	if err != nil {
		t.Fatal(err)
	}
	if !res.PD.Changed {
		t.Fatalf("PD should detect the plan change")
	}
	var explained bool
	for _, c := range res.PD.Causes {
		if c.Explains && c.Event.Kind == "IndexDropped" {
			explained = true
		}
	}
	if !explained {
		t.Fatalf("PD should attribute the change to the index drop:\n%s", res.Render())
	}
	if len(res.PD.Differences) == 0 {
		t.Fatalf("PD should report structural differences")
	}
}

func time30s() simtime.Duration { return 30 * simtime.Second }

func TestLabelHelpers(t *testing.T) {
	runs := []*exec.RunRecord{
		{RunID: "a", Start: 0, Stop: 100},
		{RunID: "b", Start: 1000, Stop: 1100},
		{RunID: "c", Start: 2000, Stop: 2500},
	}
	byDur := LabelByDuration(runs, 200)
	if !byDur["a"] || !byDur["b"] || byDur["c"] {
		t.Fatalf("LabelByDuration wrong: %v", byDur)
	}
	byWin := LabelByWindow(runs, simtime.NewInterval(1500, 2500))
	if !byWin["a"] || !byWin["b"] || byWin["c"] {
		t.Fatalf("LabelByWindow wrong: %v", byWin)
	}
}

func TestValidation(t *testing.T) {
	in := &Input{Query: "Q2"}
	if _, err := NewWorkflow(in); err == nil {
		t.Fatalf("empty input should fail validation")
	}
}

func TestInteractiveCOSOverride(t *testing.T) {
	tb := runScenario1(t, 15, 12)
	in := inputFor(tb)
	w, err := NewWorkflow(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunPD(); err != nil {
		t.Fatal(err)
	}
	if err := w.RunCO(); err != nil {
		t.Fatal(err)
	}
	// The administrator prunes the COS down to the two V1 leaves.
	if err := w.OverrideCOS([]int{8, 22}); err != nil {
		t.Fatal(err)
	}
	if err := w.RunDA(); err != nil {
		t.Fatal(err)
	}
	if err := w.RunCR(); err != nil {
		t.Fatal(err)
	}
	if err := w.RunSD(); err != nil {
		t.Fatal(err)
	}
	if err := w.RunIA(); err != nil {
		t.Fatal(err)
	}
	top, ok := w.Res.TopCause()
	if !ok || top.Cause.Kind != symptoms.CauseSANMisconfig {
		t.Fatalf("diagnosis with pruned COS should still find the cause: %v", top.Cause)
	}
	// Module ordering is enforced.
	w2, _ := NewWorkflow(in)
	if err := w2.RunDA(); err == nil {
		t.Fatalf("DA before CO should fail")
	}
}

func TestDiagnosisWithoutSymptomsDB(t *testing.T) {
	// The paper: "even when a symptoms database is not available, DIADS
	// correctly narrows down the search space".
	tb := runScenario1(t, 16, 12)
	in := inputFor(tb)
	in.SymDB = nil
	res, err := Diagnose(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 0 {
		t.Fatalf("no causes expected without a symptoms DB")
	}
	// But the narrowing happened: COS has the V1 leaves, DA has V1
	// metrics.
	if !res.CO.InCOS(8) || !res.CO.InCOS(22) {
		t.Fatalf("COS narrowing missing")
	}
	var v1Anomalous bool
	for _, m := range res.DA.CCS {
		if m.Component == string(testbed.VolV1) {
			v1Anomalous = true
		}
	}
	if !v1Anomalous {
		t.Fatalf("DA should still flag V1 metrics")
	}
}

// TestComponentFactsFoldLikeTheirAdds: BuildFacts adds each component's
// anomaly once, folded from its run of DA scores. The fact must be the
// one an Add per score would leave, NaN included: a NaN gives way to the
// next score, and a NaN after a score replaces it.
func TestComponentFactsFoldLikeTheirAdds(t *testing.T) {
	nan := math.NaN()
	da := &DAResult{Scores: []MetricScore{
		{Component: "disk-1", Metric: "a", Score: 0.4},
		{Component: "disk-1", Metric: "b", Score: 0.9},
		{Component: "disk-1", Metric: "c", Score: 0.2},
		{Component: "pool-P1", Metric: "a", Score: nan},
		{Component: "pool-P1", Metric: "b", Score: 0.3},
		{Component: "vol-V1", Metric: "a", Score: 0.7},
		{Component: "vol-V1", Metric: "b", Score: nan},
		{Component: "vol-V2", Metric: "a", Score: 0.6},
		{Component: "vol-V3", Metric: "a", Score: 0.5},
		{Component: "vol-V3", Metric: "b", Score: nan},
		{Component: "vol-V3", Metric: "c", Score: 0.1},
		{Component: "vol-V3", Metric: "d", Score: 0.1},
	}}
	want := symptoms.NewFactBase()
	for _, s := range da.Scores {
		want.Add("component-anomaly:"+s.Component, s.Score)
	}
	b := symptoms.NewFactBuilder(len(da.Scores))
	addComponentFacts(b, da)
	if got := b.Build(); got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("folded component facts\n%s\nwant one Add per score\n%s", got, want)
	}
}
