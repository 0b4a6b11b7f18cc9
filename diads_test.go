package diads_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"diads"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	sc, err := diads.BuildScenario(diads.ScenarioSANMisconfig, 300)
	if err != nil {
		t.Fatal(err)
	}
	res, err := diads.Diagnose(sc.Input)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := res.TopCause()
	if !ok {
		t.Fatal("no cause")
	}
	if !sc.Correct(res) {
		t.Fatalf("quickstart should find the misconfiguration, got %v", top.Cause)
	}
	if top.Cause.Fix == "" {
		t.Fatalf("cause should carry its fix")
	}
	if !strings.Contains(res.Render(), "DIADS diagnosis") {
		t.Fatalf("report missing header")
	}
}

func TestFacadeTestbedAndAPG(t *testing.T) {
	tb, err := diads.NewTestbed(301)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	runs := tb.RunsFor("Q2")
	if len(runs) != 48 {
		t.Fatalf("default schedule should run 48 times, got %d", len(runs))
	}
	g, err := diads.BuildAPG(tb, runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if g.Plan.NumOperators() != 25 {
		t.Fatalf("APG shape wrong")
	}
}

func TestFacadeSymptomsDBRoundTrip(t *testing.T) {
	db := diads.BuiltinSymptomsDB()
	if len(db.Entries()) == 0 {
		t.Fatal("builtin DB empty")
	}
	custom, err := diads.ParseSymptomsDB(`
cause my-cause scope=global {
  100: exists(plan-changed)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(custom.Entries()) != 1 || custom.Entries()[0].Kind != "my-cause" {
		t.Fatalf("parsed DB wrong: %+v", custom.Entries())
	}
	if _, err := diads.ParseSymptomsDB("garbage"); err == nil {
		t.Fatalf("bad DSL should error")
	}
}

func TestFacadeInteractiveWorkflow(t *testing.T) {
	sc, err := diads.BuildScenario(diads.ScenarioLockingNoise, 302)
	if err != nil {
		t.Fatal(err)
	}
	w, err := diads.NewWorkflow(sc.Input)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunPD(); err != nil {
		t.Fatal(err)
	}
	if w.Res.PD.Changed {
		t.Fatalf("locking scenario should not change the plan")
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	top, ok := w.Res.TopCause()
	if !ok || top.Cause.Kind != "lock-contention" {
		t.Fatalf("locking scenario diagnosis: %v", top.Cause)
	}
}

func TestFacadeOnlinePipeline(t *testing.T) {
	// A steady workload through the facade's online wiring: the monitor
	// must stay silent and the service idle.
	tb, err := diads.NewTestbed(303)
	if err != nil {
		t.Fatal(err)
	}
	mon := diads.NewMonitor(diads.MonitorConfig{})
	tb.Engine.OnRunComplete = mon.Observe

	svc := diads.NewService(diads.ServiceEnvFromTestbed(tb), diads.ServiceConfig{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)

	chunks := 0
	err = tb.SimulateStream(30*60, func(now diads.SimTime) error {
		chunks++
		return svc.SubmitAll(mon.Release(now))
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Wait()
	svc.Stop()

	if chunks == 0 {
		t.Fatal("streaming simulation never ticked")
	}
	if n := mon.Stats().Events; n != 0 {
		t.Errorf("steady workload raised %d events", n)
	}
	if svc.Registry().Len() != 0 {
		t.Errorf("registry has incidents on a steady workload:\n%s", svc.Registry().Render())
	}
}

// TestFacadePipelineRegistry checks that a facade diagnosis carries the
// engine's per-module trace.
func TestFacadePipelineRegistry(t *testing.T) {
	sc, err := diads.BuildScenario(diads.ScenarioSANMisconfig, 305)
	if err != nil {
		t.Fatal(err)
	}
	res, err := diads.Diagnose(sc.Input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Module("da") == nil {
		t.Fatalf("facade diagnosis should carry the workflow trace, got %+v", res.Trace)
	}
}

// TestConcurrentColdDiagnosisParity diagnoses the nine scenarios cold on
// four goroutines at once, each goroutine all nine in its own order, as
// the diagnosis service's workers do: they share the fact builder's and
// the modules' recycled scratch. Every fact base and report must equal
// the sequential run's. Run it under -race.
func TestConcurrentColdDiagnosisParity(t *testing.T) {
	type answer struct{ facts, report string }
	diagnose := func(sc *diads.Scenario) (answer, error) {
		res, _, err := sc.Diagnose()
		if err != nil {
			return answer{}, err
		}
		a := answer{report: res.Render()}
		if res.Facts != nil { // a plan change stops before the fact base
			a.facts = res.Facts.Fingerprint()
		}
		return a, nil
	}
	scs := make([]*diads.Scenario, len(allScenarioIDs))
	want := make([]answer, len(scs))
	for i, id := range allScenarioIDs {
		scs[i] = scenarioFor(t, id)
		var err error
		if want[i], err = diagnose(scs[i]); err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range scs {
				i := (k + 2*w) % len(scs)
				got, err := diagnose(scs[i])
				if err != nil {
					t.Errorf("worker %d, scenario %d: %v", w, scs[i].ID, err)
					return
				}
				if got != want[i] {
					t.Errorf("worker %d, scenario %d: fact base %s and report\n%s\nsequentially %s and\n%s",
						w, scs[i].ID, got.facts, got.report, want[i].facts, want[i].report)
				}
			}
		}()
	}
	wg.Wait()
}
