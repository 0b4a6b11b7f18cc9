package diag

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"diads/internal/apg"
	"diads/internal/cache"
	"diads/internal/dbsys"
	"diads/internal/faults"
	"diads/internal/pipeline"
	"diads/internal/symptoms"
	"diads/internal/testbed"
)

// planRegressionRig injects an index drop so the optimizer changes the
// plan mid-schedule — the Module PD short-circuit scenario.
func planRegressionRig(t testing.TB, seed int64, runs int) *testbed.Testbed {
	t.Helper()
	tb := scenarioRig(t, seed, runs)
	if err := faults.Inject(tb, &faults.IndexDrop{At: faultMidpoint(runs), Index: dbsys.IdxPartsuppPart}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestBatchTraceRecordsEveryModule checks that a batch diagnosis carries
// the engine's per-module trace with every DAG node executed.
func TestBatchTraceRecordsEveryModule(t *testing.T) {
	tb := runScenario1(t, 21, 12)
	res, err := Diagnose(inputFor(tb))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("batch diagnosis should carry a trace")
	}
	if res.Trace.Pipeline != PipelineDIADS {
		t.Fatalf("trace pipeline = %q", res.Trace.Pipeline)
	}
	for _, name := range []string{KeyPD, KeyAPG, KeyCO, KeyDA, KeyCR, KeyFacts, KeySD, KeyIA} {
		mt := res.Trace.Module(name)
		if mt == nil {
			t.Fatalf("trace missing module %s", name)
		}
		if mt.Status != pipeline.StatusRan {
			t.Errorf("module %s status = %s, want ran", name, mt.Status)
		}
	}
}

// TestPlanChangeShortCircuitsTrace checks that a plan change halts the
// DAG at Module PD and the trace records the drill-down as skipped.
func TestPlanChangeShortCircuitsTrace(t *testing.T) {
	tb := planRegressionRig(t, 22, 12)
	res, err := Diagnose(inputFor(tb))
	if err != nil {
		t.Fatal(err)
	}
	if !res.PD.Changed {
		t.Fatal("scenario should change the plan")
	}
	if mt := res.Trace.Module(KeyPD); mt.Status != pipeline.StatusRan || mt.Note != "short-circuit" {
		t.Fatalf("pd trace: %+v", mt)
	}
	for _, name := range []string{KeyAPG, KeyCO, KeyDA, KeyCR, KeyFacts, KeySD, KeyIA} {
		if mt := res.Trace.Module(name); mt.Status != pipeline.StatusSkipped {
			t.Errorf("module %s should be skipped after the plan change, got %s", name, mt.Status)
		}
	}
}

// TestSchedulerLevelCaches checks that the APG and SD caches are
// consulted by the scheduler, visible as cache hits in the trace.
func TestSchedulerLevelCaches(t *testing.T) {
	tb := runScenario1(t, 23, 12)
	in := inputFor(tb)
	in.APGCache = cache.New[string, *apg.APG](4)
	in.SDCache = cache.New[string, []symptoms.CauseInstance](4)

	first, err := Diagnose(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{KeyAPG, KeySD} {
		if mt := first.Trace.Module(name); mt.Cache != pipeline.CacheMiss {
			t.Errorf("first run %s cache = %q, want miss", name, mt.Cache)
		}
	}

	second, err := Diagnose(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{KeyAPG, KeySD} {
		mt := second.Trace.Module(name)
		if mt.Status != pipeline.StatusCacheHit || mt.Cache != pipeline.CacheHit {
			t.Errorf("second run %s should be a cache hit, got %+v", name, mt)
		}
	}
	if first.Render() != second.Render() {
		t.Fatal("cache-satisfied diagnosis must render identically")
	}
}

// TestSDCacheKeyedOnSymDBVersion installs an entry into the shared
// symptoms database between two diagnoses sharing an SD cache: the
// version bump must make the second SD miss, and its causes must be the
// ones an uncached diagnosis finds, new entry included.
func TestSDCacheKeyedOnSymDBVersion(t *testing.T) {
	tb := runScenario1(t, 23, 12)
	in := inputFor(tb)
	in.SDCache = cache.New[string, []symptoms.CauseInstance](4)
	if _, err := Diagnose(in); err != nil {
		t.Fatal(err)
	}
	const kind = "installed-between-diagnoses"
	if err := in.SymDB.Add(symptoms.Entry{Kind: kind, Scope: symptoms.ScopeGlobal,
		Conditions: []symptoms.Condition{{Weight: 100, Expr: symptoms.MustParseExpr("ge(ambient:cpu, 0.8)")}},
	}); err != nil {
		t.Fatal(err)
	}
	second, err := Diagnose(in)
	if err != nil {
		t.Fatal(err)
	}
	if mt := second.Trace.Module(KeySD); mt.Status != pipeline.StatusRan || mt.Cache != pipeline.CacheMiss {
		t.Fatalf("SD after the database changed should miss, got %+v", mt)
	}
	in.SDCache = nil
	uncached, err := Diagnose(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Causes, uncached.Causes) {
		t.Fatalf("causes after the miss differ from an uncached diagnosis:\n%v\n%v", second.Causes, uncached.Causes)
	}
	if !slices.ContainsFunc(second.Causes, func(c symptoms.CauseInstance) bool { return c.Kind == kind }) {
		t.Fatalf("causes miss the installed entry %s: %v", kind, second.Causes)
	}
}

// TestDiagnosisCancellationMidPipeline cancels the context as CR's turn
// comes; the run must surface context.Canceled.
func TestDiagnosisCancellationMidPipeline(t *testing.T) {
	tb := runScenario1(t, 24, 12)
	in := inputFor(tb)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err := diagnose(ctx, in, func(m string) {
		if m == KeyCR { // DA ran first (the workflow's order)
			once.Do(cancel)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestPreCanceledDiagnosis mirrors the old workflow's guarantee that a
// canceled worker context stops the diagnosis before any module runs.
func TestPreCanceledDiagnosis(t *testing.T) {
	tb := runScenario1(t, 25, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiagnoseContext(ctx, inputFor(tb)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestInteractiveStepsRecordTrace drives the interactive mode with an
// edit hook between CO and DA and checks the per-step trace.
func TestInteractiveStepsRecordTrace(t *testing.T) {
	tb := runScenario1(t, 27, 12)
	w, err := NewWorkflow(inputFor(tb))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{w.RunPD, w.RunCO} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.OverrideCOS([]int{8, 22}); err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{w.RunDA, w.RunCR, w.RunSD, w.RunIA} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	trace := w.Trace()
	// pd+apg, co, da, cr, facts+sd, ia = 8 steps.
	if len(trace.Modules) != 8 {
		t.Fatalf("interactive trace has %d steps, want 8", len(trace.Modules))
	}
	if mt := trace.Module(KeyDA); mt == nil || mt.Status != pipeline.StatusRan {
		t.Fatalf("da step trace: %+v", mt)
	}
	// The edit hook reached DA: only the two V1 leaves were analyzed.
	if got := len(w.Res.CO.COS); got != 2 {
		t.Fatalf("DA saw COS of size %d, want the pruned 2", got)
	}
}

// TestInteractiveOrdering checks the interactive mode's dependency
// checks: a module run before its inputs fails without running, a retry
// once they exist succeeds and replaces the failed step's trace entry,
// and a plan change leaves no APG for the drill-down.
func TestInteractiveOrdering(t *testing.T) {
	w, err := NewWorkflow(inputFor(runScenario1(t, 28, 12)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunPD(); err != nil {
		t.Fatal(err)
	}
	if err := w.RunDA(); err == nil || !strings.Contains(err.Error(), "requires module co") {
		t.Fatalf("DA before CO should fail on the missing co, got %v", err)
	}
	if w.Res.DA != nil {
		t.Fatal("DA wrote a result although its dependency was missing")
	}
	if mt := w.Trace().Module(KeyDA); mt == nil || mt.Status != pipeline.StatusNotRun {
		t.Fatalf("failed DA step trace: %+v", mt)
	}
	if err := w.RunCO(); err != nil {
		t.Fatal(err)
	}
	if err := w.RunDA(); err != nil {
		t.Fatalf("DA after CO: %v", err)
	}
	var names []string
	for _, mt := range w.Trace().Modules {
		names = append(names, mt.Module)
	}
	// pd+apg, the failed then retried da, co: one entry per module.
	if got := strings.Join(names, ","); got != "pd,apg,da,co" {
		t.Fatalf("step trace modules = %s, want pd,apg,da,co", got)
	}
	if mt := w.Trace().Module(KeyDA); mt.Status != pipeline.StatusRan {
		t.Fatalf("retried DA step trace: %+v", mt)
	}

	changed, err := NewWorkflow(inputFor(planRegressionRig(t, 22, 12)))
	if err != nil {
		t.Fatal(err)
	}
	if err := changed.RunPD(); err != nil {
		t.Fatal(err)
	}
	if !changed.Res.PD.Changed {
		t.Fatal("scenario should change the plan")
	}
	if err := changed.RunCO(); err == nil || !strings.Contains(err.Error(), "requires module apg") {
		t.Fatalf("CO after a plan change should fail on the missing apg, got %v", err)
	}
}
