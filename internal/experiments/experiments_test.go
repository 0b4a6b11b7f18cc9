package experiments

import (
	"reflect"
	"strings"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/faults"
	"diads/internal/selfheal"
	"diads/internal/symptoms"
	"diads/internal/testbed"
	"diads/internal/topology"
)

const testSeed = 400

func TestTable1AllScenariosDiagnosedCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 run is slow")
	}
	res, err := Table1(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("Table 1 has 5 scenarios, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Correct {
			t.Errorf("scenario %d (%s) misdiagnosed: %s", row.Scenario, row.Title, row.TopCause)
		}
	}
	if !res.AllCorrect() {
		t.Errorf("AllCorrect should hold:\n%s", res.Render())
	}
	if !strings.Contains(res.Render(), "Table 1") {
		t.Errorf("render missing title")
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	res, err := Table2(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("Table 2 has 4 rows, got %d", len(res.Rows))
	}
	get := func(vol string, metric string, burst bool) float64 {
		for _, r := range res.Rows {
			if r.Volume == vol && string(r.Metric) == metric {
				if burst {
					return r.WithV2Burst
				}
				return r.NoContention
			}
		}
		t.Fatalf("row %s/%s missing", vol, metric)
		return 0
	}
	// Shape assertions mirroring the paper's table:
	// V1 metrics anomalous in both columns.
	for _, burst := range []bool{false, true} {
		if s := get("vol-V1", "writeIO", burst); s < 0.8 {
			t.Errorf("V1 writeIO should stay anomalous (burst=%v): %.3f", burst, s)
		}
		if s := get("vol-V1", "writeTime", burst); s < 0.8 {
			t.Errorf("V1 writeTime should stay anomalous (burst=%v): %.3f", burst, s)
		}
	}
	// V2 writeTime calm without the burst, anomalous with it.
	if s := get("vol-V2", "writeTime", false); s > 0.8 {
		t.Errorf("V2 writeTime without burst should be calm: %.3f", s)
	}
	if s := get("vol-V2", "writeTime", true); s < 0.8 {
		t.Errorf("V2 writeTime with burst should rise: %.3f", s)
	}
	// V2 writeIO rises with the burst.
	if get("vol-V2", "writeIO", true) < get("vol-V2", "writeIO", false) {
		t.Errorf("V2 writeIO should rise with the burst")
	}
}

func TestFigure1APGShape(t *testing.T) {
	res, err := Figure1(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Operators != 25 || res.Leaves != 9 {
		t.Fatalf("Figure 1 shape: %d ops / %d leaves", res.Operators, res.Leaves)
	}
	if len(res.V1Leaves) != 2 || len(res.V2Leaves) != 7 {
		t.Fatalf("volume mapping: V1=%v V2=%v", res.V1Leaves, res.V2Leaves)
	}
	if !strings.Contains(res.Render(), "paper: 25") {
		t.Fatalf("render missing paper reference")
	}
}

func TestFigure3QueryScreen(t *testing.T) {
	res, err := Figure3(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != scenarioRuns {
		t.Fatalf("rows: %d", res.Rows)
	}
	for _, want := range []string{"Query Selection", "Duration", "Unsat", "[x]", "run-Q2-001"} {
		if !strings.Contains(res.Screen, want) {
			t.Fatalf("screen missing %q:\n%s", want, res.Screen)
		}
	}
}

func TestFigure4Catalog(t *testing.T) {
	res := Figure4()
	r := res.Render()
	for _, want := range []string{"Database Metrics", "Server Metrics", "Network Metrics",
		"Storage Metrics", "CPU Usage (%ge)", "CRC Errors", "Sequential Read Requests"} {
		if !strings.Contains(r, want) {
			t.Fatalf("Figure 4 render missing %q", want)
		}
	}
}

func TestFigure5Deployment(t *testing.T) {
	res, err := Figure5(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DS6000", "P1", "P2", "srv-db"} {
		if !strings.Contains(res.Render(), want) {
			t.Fatalf("Figure 5 missing %q", want)
		}
	}
}

func TestFigure6APGScreen(t *testing.T) {
	res, err := Figure6(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"APG Visualization", "vol-V1", "writeTime", "[x]"} {
		if !strings.Contains(res.Screen, want) {
			t.Fatalf("Figure 6 screen missing %q", want)
		}
	}
}

func TestFigure7WorkflowScreen(t *testing.T) {
	res, err := Figure7(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// After Module CO: PD and CO executed, DA next, the rest disabled.
	for _, want := range []string{"[PD*]", "[CO*]", "[DA ]", "(CR )", "correlated operator set"} {
		if !strings.Contains(res.Screen, want) {
			t.Fatalf("Figure 7 screen missing %q:\n%s", want, res.Screen)
		}
	}
}

func TestKDERobustnessShape(t *testing.T) {
	res := KDERobustness(testSeed)
	kdeAccs := res.Accuracy["KDE"]
	gaussAccs := res.Accuracy["Gaussian-model"]
	if len(kdeAccs) != len(res.SampleCounts) {
		t.Fatalf("missing KDE series")
	}
	// KDE accurate with few tens of samples.
	if kdeAccs[1] < 0.85 { // 12 samples
		t.Errorf("KDE at 12 samples: %.3f", kdeAccs[1])
	}
	// KDE at least as good as the parametric baseline at small n.
	if kdeAccs[0] < gaussAccs[0] {
		t.Errorf("KDE (%.3f) should not lose to Gaussian (%.3f) at 8 samples",
			kdeAccs[0], gaussAccs[0])
	}
	// Noise sweep: KDE stays above the baseline at high noise.
	n := len(res.NoiseLevels) - 1
	if res.NoiseAccuracy["KDE"][n] < res.NoiseAccuracy["Gaussian-model"][n] {
		t.Errorf("KDE should stay more robust at the highest noise level")
	}
	if !strings.Contains(res.Render(), "KDE robustness") {
		t.Errorf("render missing title")
	}
}

func TestBaselinesNarrative(t *testing.T) {
	res, err := Baselines(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DIADSCorrect {
		t.Errorf("DIADS should diagnose the variant correctly: %s", res.DIADSCause)
	}
	if !res.SANOnlyFlagsV2Side {
		t.Errorf("SAN-only should flag the V2 side (its characteristic mistake)")
	}
	if res.DBOnlyGenerics != 2 {
		t.Errorf("DB-only should emit 2 generic false positives, got %d", res.DBOnlyGenerics)
	}
}

func TestIncompleteSymptomsDB(t *testing.T) {
	res, err := IncompleteSymptomsDB(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.FullCause, symptoms.CauseSANMisconfig) {
		t.Errorf("full DB should find the misconfiguration: %s", res.FullCause)
	}
	// With the entry removed a related (volume-contention) hypothesis
	// still surfaces.
	if res.WithoutEntryTop == "" {
		t.Errorf("without the entry some cause should still surface")
	}
	// With no DB at all, the search space is still narrowed to the V1
	// leaves and components.
	foundO8 := false
	for _, id := range res.NarrowedOperators {
		if id == 8 {
			foundO8 = true
		}
	}
	if !foundO8 {
		t.Errorf("narrowed operators should include O8: %v", res.NarrowedOperators)
	}
	foundV1 := false
	for _, c := range res.NarrowedComponents {
		if c == "vol-V1" {
			foundV1 = true
		}
	}
	if !foundV1 {
		t.Errorf("narrowed components should include vol-V1: %v", res.NarrowedComponents)
	}
}

func TestAblationsShowModuleValue(t *testing.T) {
	res, err := Ablations(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TopIsCorrect {
		t.Errorf("full workflow should be correct")
	}
	// DA restricts candidates to dependency paths of correlated
	// operators; scoring everything can only find at least as many
	// anomalous metrics (ties happen when noise pulls a V2 leaf into the
	// COS, putting its whole path on the candidate list).
	if res.NoDAHighMetrics < res.WithDAHighMetrics {
		t.Errorf("DA pruning should never add anomalous metrics: %d -> %d",
			res.NoDAHighMetrics, res.WithDAHighMetrics)
	}
	// Lower thresholds admit more operators.
	if res.ThresholdSweep[0.5] < res.ThresholdSweep[0.9] {
		t.Errorf("threshold sweep not monotone: %v", res.ThresholdSweep)
	}
}

func TestSelfHealRecovers(t *testing.T) {
	res, err := SelfHeal(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Remedy, "recreate index") {
		t.Errorf("remedy should recreate the index: %s", res.Remedy)
	}
	if res.BrokenMean < res.HealthyMean*1.5 {
		t.Errorf("broken runs should be clearly slower: healthy=%.1f broken=%.1f",
			res.HealthyMean, res.BrokenMean)
	}
	if !res.Recovered {
		t.Errorf("healed runs should recover: %s", res.Verdict)
	}
}

// TestSelfHealLogsRemedyWhenApplied pins the self-heal study's change
// log: the remedy's IndexCreated carries the time it is applied, after
// the IndexDropped it repairs, not the epoch.
func TestSelfHealLogsRemedyWhenApplied(t *testing.T) {
	remedy, err := selfheal.Plan(symptoms.CauseInstance{Kind: symptoms.CausePlanRegression, Subject: dbsys.IdxPartsuppPart})
	if err != nil {
		t.Fatal(err)
	}
	healed, post, err := heal(testSeed, dbsys.IdxPartsuppPart, remedy)
	if err != nil {
		t.Fatal(err)
	}
	log := healed.Cfg.Log.All()
	if len(log) != 2 || log[0].Kind != topology.EvIndexDropped || log[1].Kind != topology.EvIndexCreated {
		t.Fatalf("healed log %+v, want the drop then the recreation", log)
	}
	if log[1].T <= log[0].T || log[1].T != post {
		t.Errorf("IndexCreated at %s, IndexDropped at %s: the remedy is applied at %s",
			log[1].T.Clock(), log[0].T.Clock(), post.Clock())
	}
}

func TestExtraScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range []ScenarioID{SCPUSaturation, SDiskFailure, SRAIDRebuild} {
		sc, err := Build(id, testSeed+int64(id)*7)
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		res, correct, err := sc.Diagnose()
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		if !correct {
			top, _ := res.TopCause()
			t.Errorf("scenario %d (%s) misdiagnosed: got %v, want one of %v\n%s",
				id, sc.Title, top.Cause, sc.Answers, res.Render())
		}
	}
}

// TestScenarioAnswers pins the answers Build resolves from the faults it
// marks as causes to the expectations the scenarios were written with:
// scenario 4 carries two answers, and the V4 burst of scenarios 2 and 5
// and of Table 2's variant is noise, in none of them.
func TestScenarioAnswers(t *testing.T) {
	one := func(kind, subject string) [][]faults.Cause { return [][]faults.Cause{{{Kind: kind, Subject: subject}}} }
	v1 := string(testbed.VolV1)
	want := map[ScenarioID][][]faults.Cause{
		S1SANMisconfig:       one(symptoms.CauseSANMisconfig, v1),
		S2TwoPoolContention:  one(symptoms.CauseExternalLoad, v1),
		S3DataPropertyChange: one(symptoms.CauseDataProperty, dbsys.TPartsupp),
		S4ConcurrentDBAndSAN: {
			{{Kind: symptoms.CauseSANMisconfig, Subject: v1}},
			{{Kind: symptoms.CauseDataProperty, Subject: dbsys.TPartsupp}},
		},
		S5LockingWithNoise: one(symptoms.CauseLockContention, dbsys.TPartsupp),
		SPlanRegression:    one(symptoms.CausePlanRegression, dbsys.IdxPartsuppPart),
		SCPUSaturation:     one(symptoms.CauseCPUSaturation, string(testbed.ServerDB)),
		SDiskFailure:       one(symptoms.CauseDiskFailure, string(testbed.PoolP1)),
		SRAIDRebuild:       one(symptoms.CauseRAIDRebuild, string(testbed.PoolP1)),
	}
	for id := S1SANMisconfig; id <= SRAIDRebuild; id++ {
		sc, err := Build(id, testSeed)
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		if !reflect.DeepEqual(sc.Answers, want[id]) {
			t.Errorf("scenario %d: answers = %v, want %v", id, sc.Answers, want[id])
		}
	}
	sc, err := buildScenario1WithV2Burst(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Answers, want[S1SANMisconfig]) {
		t.Errorf("Table 2 variant: answers = %v, want %v", sc.Answers, want[S1SANMisconfig])
	}
}

func TestUnknownScenarioRejected(t *testing.T) {
	if _, err := Build(ScenarioID(99), 1); err == nil {
		t.Fatalf("unknown scenario should error")
	}
}

func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep is slow")
	}
	res, err := SeedRobustness(testSeed, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Diagnosis should be right in the large majority of seeds; a noisy
	// miss in one scenario/seed is tolerated, systematic failure is not.
	if res.MinAccuracy() < 0.75 {
		t.Fatalf("diagnosis unstable across seeds:\n%s", res.Render())
	}
}
