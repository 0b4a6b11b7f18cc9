package diag

import (
	"context"
	"errors"
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

// TestDiagnosisCancellationMidPipeline cancels the context as CR's turn
// comes; the run must surface context.Canceled.
func TestDiagnosisCancellationMidPipeline(t *testing.T) {
	tb := runScenario1(t, 24, 12)
	in := inputFor(tb)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err := DiagnoseWith(ctx, in, RunConfig{
		OnModuleStart: func(m string) {
			if m == KeyCR { // DA ran first (topological order)
				once.Do(cancel)
			}
		},
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
