// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus micro-benchmarks
// of the diagnosis machinery. Shapes, not absolute numbers, are the
// comparison target; EXPERIMENTS.md records paper-vs-measured values.
package diads_test

import (
	"fmt"
	"math"
	"testing"

	"diads"
	"diads/internal/apg"
	"diads/internal/baseline"
	"diads/internal/diag"
	"diads/internal/experiments"
	"diads/internal/kde"
	"diads/internal/simtime"
	"diads/internal/testbed"
)

// allScenarioIDs lists every scenario (the paper's five plus the
// extension scenarios) for engine-wide sweeps.
var allScenarioIDs = []diads.ScenarioID{
	diads.ScenarioSANMisconfig, diads.ScenarioTwoPools, diads.ScenarioDataProperty,
	diads.ScenarioConcurrentFaults, diads.ScenarioLockingNoise, diads.ScenarioPlanRegression,
	diads.ScenarioCPUSaturation, diads.ScenarioDiskFailure, diads.ScenarioRAIDRebuild,
}

const benchSeed = 4242

// benchScenario caches one simulated scenario per ID across iterations;
// construction dominates otherwise.
var benchScenarios = map[diads.ScenarioID]*diads.Scenario{}

func scenarioFor(b testing.TB, id diads.ScenarioID) *diads.Scenario {
	b.Helper()
	if sc, ok := benchScenarios[id]; ok {
		return sc
	}
	sc, err := diads.BuildScenario(id, benchSeed+int64(id))
	if err != nil {
		b.Fatal(err)
	}
	benchScenarios[id] = sc
	return sc
}

// BenchmarkTable1_Scenario1 through _Scenario5 regenerate Table 1: each
// iteration diagnoses the scenario end to end and verifies the outcome.
func BenchmarkTable1_Scenario1(b *testing.B) { benchScenarioDiagnosis(b, diads.ScenarioSANMisconfig) }
func BenchmarkTable1_Scenario2(b *testing.B) { benchScenarioDiagnosis(b, diads.ScenarioTwoPools) }
func BenchmarkTable1_Scenario3(b *testing.B) { benchScenarioDiagnosis(b, diads.ScenarioDataProperty) }
func BenchmarkTable1_Scenario4(b *testing.B) {
	benchScenarioDiagnosis(b, diads.ScenarioConcurrentFaults)
}
func BenchmarkTable1_Scenario5(b *testing.B) { benchScenarioDiagnosis(b, diads.ScenarioLockingNoise) }

func benchScenarioDiagnosis(b *testing.B, id diads.ScenarioID) {
	sc := scenarioFor(b, id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, correct, err := sc.Diagnose()
		if err != nil {
			b.Fatal(err)
		}
		if !correct {
			top, _ := res.TopCause()
			b.Fatalf("scenario %d misdiagnosed: %v", id, top.Cause)
		}
	}
}

// BenchmarkDiagnoseCold is the `go test -bench` twin of diadsperf's
// diagnose-batch workload: one op = the nine scenarios diagnosed cold
// (no APG or SD cache), each checked against its ground-truth cause.
func BenchmarkDiagnoseCold(b *testing.B) {
	scs := make([]*diads.Scenario, len(allScenarioIDs))
	for i, id := range allScenarioIDs {
		scs[i] = scenarioFor(b, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scs {
			_, correct, err := sc.Diagnose()
			if err != nil {
				b.Fatal(err)
			}
			if !correct {
				b.Fatalf("scenario %d misdiagnosed", sc.ID)
			}
		}
	}
}

// BenchmarkTable2_AnomalyScores regenerates Table 2 (prints it once).
func BenchmarkTable2_AnomalyScores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
		}
	}
}

// BenchmarkFigure1_APG regenerates the Figure 1 APG: construction from
// plan, catalog, and SAN configuration.
func BenchmarkFigure1_APG(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioSANMisconfig)
	run := sc.Testbed.Runs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := diads.BuildAPG(sc.Testbed, run)
		if err != nil {
			b.Fatal(err)
		}
		if g.Plan.NumOperators() != 25 || len(g.Plan.Leaves()) != 9 {
			b.Fatalf("Figure 1 shape broken")
		}
	}
}

// BenchmarkFigure2_Workflow times the full batch workflow of Figure 2 on
// the prepared scenario-1 input.
func BenchmarkFigure2_Workflow(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioSANMisconfig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diads.Diagnose(sc.Input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3_QueryScreen renders the query-selection screen.
func BenchmarkFigure3_QueryScreen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows == 0 {
			b.Fatal("empty screen")
		}
	}
}

// BenchmarkFigure4_MetricCatalog enumerates the Figure 4 catalog.
func BenchmarkFigure4_MetricCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure4()
		if len(res.Catalog) != 4 {
			b.Fatal("catalog layers wrong")
		}
	}
}

// BenchmarkFigure6_APGScreen renders the APG visualization screen.
func BenchmarkFigure6_APGScreen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_WorkflowScreen renders the interactive workflow screen.
func BenchmarkFigure7_WorkflowScreen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKDE_SampleEfficiency reproduces the Section 5 observation
// (KDE vs model-based correlation, accuracy vs sample count and noise).
func BenchmarkKDE_SampleEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.KDERobustness(benchSeed)
		if i == 0 {
			b.Logf("\n%s", res.Render())
		}
	}
}

// BenchmarkBaseline_Comparison reproduces the silo-tool narrative.
func BenchmarkBaseline_Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Baselines(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if !res.DIADSCorrect {
			b.Fatal("DIADS misdiagnosed the comparison scenario")
		}
	}
}

// BenchmarkModulePD_PlanDiff regenerates the plan-regression experiment.
func BenchmarkModulePD_PlanDiff(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioPlanRegression)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := diads.Diagnose(sc.Input)
		if err != nil {
			b.Fatal(err)
		}
		if !res.PD.Changed {
			b.Fatal("plan change missed")
		}
	}
}

// BenchmarkAblation_NoSymptomsDB measures diagnosis without the symptoms
// database (the incomplete-knowledge observation).
func BenchmarkAblation_NoSymptomsDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.IncompleteSymptomsDB(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.NarrowedOperators) == 0 {
			b.Fatal("no narrowing")
		}
	}
}

// BenchmarkAblation_ThresholdSweep measures the workflow ablations.
func BenchmarkAblation_ThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_SelfHeal measures the self-healing study (E20).
func BenchmarkExtension_SelfHeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SelfHeal(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Recovered {
			b.Fatal("self-heal did not recover")
		}
	}
}

// --- micro-benchmarks of the core machinery ---

// BenchmarkMicro_KDEScore times one anomaly-score computation at the
// workload sizes the workflow uses (tens of samples).
func BenchmarkMicro_KDEScore(b *testing.B) {
	rnd := simtime.NewRand(1, "bench-kde")
	sat := make([]float64, 30)
	for i := range sat {
		sat[i] = rnd.Gaussian(10, 1)
	}
	unsat := []float64{31, 29, 33}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kde.AnomalyScore(sat, unsat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNormalCDF times one standard normal CDF, the kernel every KDE
// score term goes through, against the 0.5*(1+math.Erf(z/√2)) form it
// replaced. Each sub-benchmark draws |z| from one of math.Erf's branches
// (x = z/√2 below 0.84375, below 1.25, below 1/0.35, below 6, and ±1
// from 6 on), half of the points negative.
func BenchmarkNormalCDF(b *testing.B) {
	branches := []struct {
		name   string
		lo, hi float64 // bounds of |x|
	}{
		{"small", 0, 0.84375},
		{"near1", 0.84375, 1.25},
		{"mid", 1.25, 1 / 0.35},
		{"tail", 1 / 0.35, 6},
		{"saturated", 6, 7},
	}
	forms := []struct {
		name string
		phi  func(float64) float64
	}{
		{"kernel", kde.NormalCDF},
		{"erf", func(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }},
	}
	rnd := simtime.NewRand(1, "bench-normal-cdf")
	for _, br := range branches {
		zs := make([]float64, 256)
		for i := range zs {
			zs[i] = math.Sqrt2 * (br.lo + (br.hi-br.lo)*rnd.Float64())
			if i%2 == 1 {
				zs[i] = -zs[i]
			}
		}
		for _, form := range forms {
			b.Run(form.name+"/"+br.name, func(b *testing.B) {
				var sum float64
				for b.Loop() {
					for _, z := range zs {
						sum += form.phi(z)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(zs)), "ns/z")
				if math.IsNaN(sum) {
					b.Fatal("NaN")
				}
			})
		}
	}
}

// BenchmarkMicro_GaussianScore times the baseline scorer for comparison.
func BenchmarkMicro_GaussianScore(b *testing.B) {
	rnd := simtime.NewRand(1, "bench-gauss")
	sat := make([]float64, 30)
	for i := range sat {
		sat[i] = rnd.Gaussian(10, 1)
	}
	unsat := []float64{31, 29, 33}
	s := baseline.GaussianScorer{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Score(sat, unsat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_TestbedSimulation times one full-day testbed simulation
// (48 query runs plus monitoring emission) in both emission shapes: one
// batch frame over the whole day, and 30-minute chunks as RunOnline and
// the fleet stream it.
func BenchmarkMicro_TestbedSimulation(b *testing.B) {
	for _, shape := range []struct {
		name  string
		chunk simtime.Duration
	}{{"batch", 0}, {"stream", 30 * simtime.Minute}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb, err := diads.NewTestbed(int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if err := tb.SimulateStream(shape.chunk, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicro_ModuleCO times Module CO alone.
func BenchmarkMicro_ModuleCO(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioSANMisconfig)
	w, err := diads.NewWorkflow(sc.Input)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.RunPD(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunCO(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_ModuleDA times Module DA alone.
func BenchmarkMicro_ModuleDA(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioSANMisconfig)
	w, err := diads.NewWorkflow(sc.Input)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.RunPD(); err != nil {
		b.Fatal(err)
	}
	if err := w.RunCO(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunDA(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_StoreMetricsFor times the store's index read Module DA
// issues once per candidate component: every component of scenario 1's
// store asked for its metrics.
func BenchmarkMicro_StoreMetricsFor(b *testing.B) {
	store := scenarioFor(b, diads.ScenarioSANMisconfig).Input.Store
	comps := store.Components()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range comps {
			if len(store.MetricsFor(c)) == 0 {
				b.Fatalf("no metrics for %s", c)
			}
		}
	}
}

// BenchmarkMicro_StoreWindowMeans times the batched per-run read Module
// DA issues per series: every series of scenario 1's store read over the
// satisfactory runs' evidence windows into one reused buffer.
func BenchmarkMicro_StoreWindowMeans(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioSANMisconfig)
	store, keys := sc.Input.Store, sc.Input.Store.Keys()
	sat, _ := sc.Input.LabeledRuns()
	windows := diag.ReadWindows(sat)
	var buf []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			buf = store.WindowMeans(k.Component, k.Metric, windows, buf[:0])
		}
	}
	if len(buf) == 0 {
		b.Fatal("last series had no samples in any window")
	}
}

// BenchmarkMicro_StoreWindowStats times the same reads one window per
// call (the path of diadsperf's metrics.window_stats_ns probe): each call
// seeks both window ends and replays their sums from the nearest
// checkpoints, where WindowMeans steps a cursor from the last window.
func BenchmarkMicro_StoreWindowStats(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioSANMisconfig)
	store, keys := sc.Input.Store, sc.Input.Store.Keys()
	sat, _ := sc.Input.LabeledRuns()
	windows := diag.ReadWindows(sat)
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			for _, iv := range windows {
				n += store.WindowStats(k.Component, k.Metric, iv).N
			}
		}
	}
	if n == 0 {
		b.Fatal("no series had samples in any window")
	}
}

// BenchmarkMicro_APGDependencyPaths times dependency-path computation for
// every operator of the Q2 plan.
func BenchmarkMicro_APGDependencyPaths(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioSANMisconfig)
	run := sc.Testbed.Runs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := apg.Build(run.Plan, sc.Testbed.Cfg, sc.Testbed.Cat, testbed.ServerDB)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range run.Plan.Nodes() {
			if dp := g.DependencyPath(n.ID); len(dp.Inner) == 0 {
				b.Fatal("empty dependency path")
			}
		}
	}
}

// BenchmarkMicro_SymptomEvaluation times one symptoms-database evaluation.
func BenchmarkMicro_SymptomEvaluation(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioSANMisconfig)
	res, err := diads.Diagnose(sc.Input)
	if err != nil {
		b.Fatal(err)
	}
	db := diads.BuiltinSymptomsDB()
	bindings := diag.Bindings(sc.Input, res.APG)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		causes := db.Evaluate(res.Facts, bindings)
		if len(causes) == 0 {
			b.Fatal("no causes")
		}
	}
}

// BenchmarkMicro_FactBaseMaxScore times wildcard probes — the innermost
// call of a symptoms-database evaluation — over a real scenario's facts:
// a volume's metrics, one segment in the middle, and a whole family.
func BenchmarkMicro_FactBaseMaxScore(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioSANMisconfig)
	res, err := diads.Diagnose(sc.Input)
	if err != nil {
		b.Fatal(err)
	}
	patterns := []string{"metric-anomaly:" + string(testbed.VolV1) + ":*", "event:*:" + string(testbed.VolV1), "record-anomaly:*"}
	if res.Facts.MaxScore(patterns[0]) == 0 {
		b.Fatalf("no fact matches %s among %d", patterns[0], res.Facts.Len())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range patterns {
			benchSink += res.Facts.MaxScore(p)
		}
	}
}

// benchSink keeps measured results alive.
var benchSink float64

// BenchmarkMicro_QueryExecution times one simulated Q2 execution.
func BenchmarkMicro_QueryExecution(b *testing.B) {
	tb, err := diads.NewTestbed(9)
	if err != nil {
		b.Fatal(err)
	}
	p, err := tb.Opt.PlanQuery("Q2", tb.Stats, tb.Params)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Engine.Run(p, simtime.Time(i*1800), fmt.Sprintf("b-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_SymptomMining measures the self-evolving database
// proposing entries from three confirmed incidents.
func BenchmarkExtension_SymptomMining(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioSANMisconfig)
	res, err := diads.Diagnose(sc.Input)
	if err != nil {
		b.Fatal(err)
	}
	inc, err := res.ToIncident("san-misconfig-contention", "vol-V1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m diads.SymptomMiner
		m.AddIncident(inc)
		m.AddIncident(inc)
		m.AddIncident(inc)
		if cands := m.Propose(3); len(cands) == 0 {
			b.Fatal("no candidates mined")
		}
	}
}

// BenchmarkRobustness_SeedSweep measures multi-seed scenario accuracy
// (the aggregate study in EXPERIMENTS.md).
func BenchmarkRobustness_SeedSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SeedRobustness(benchSeed, 2)
		if err != nil {
			b.Fatal(err)
		}
		if res.MinAccuracy() < 0.5 {
			b.Fatal("diagnosis unstable")
		}
	}
}
