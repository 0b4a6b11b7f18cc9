package diag

import (
	"reflect"
	"sync"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/faults"
	"diads/internal/opt"
	"diads/internal/plan"
	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/topology"
)

// freshPlan plans Q2 from scratch: unversioned statistics bypass the memo.
func freshPlan(t *testing.T, cat *dbsys.Catalog, tb *testbed.Testbed) *plan.Plan {
	t.Helper()
	p, err := opt.New(cat).PlanQuery("Q2", dbsys.Stats{Rows: tb.Stats.Rows}, tb.Params)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMemoisedPlansAreShared pins what the optimizer's memo relies on:
// every run of a plan shares one *plan.Plan, and nothing that executes or
// diagnoses a run writes to it. After a full drill-down (scenario 1) and
// a PD replay (an index drop), each shared plan still equals, field for
// field and estimate for estimate, a plan built fresh under the state it
// was chosen in.
func TestMemoisedPlansAreShared(t *testing.T) {
	check := func(name string, tb *testbed.Testbed, wantPlans int, fresh func(sig string) *plan.Plan) {
		t.Helper()
		res, err := Diagnose(inputFor(tb))
		if err != nil {
			t.Fatal(err)
		}
		shared := map[string]*plan.Plan{}
		for _, r := range tb.RunsFor("Q2") {
			if p, ok := shared[r.PlanSig]; ok && p != r.Plan {
				t.Fatalf("%s: two runs of plan %s hold different *plan.Plan values", name, r.PlanSig)
			}
			shared[r.PlanSig] = r.Plan
		}
		if len(shared) != wantPlans || res.PD.Changed != (wantPlans > 1) {
			t.Fatalf("%s: %d plans, PD changed %v", name, len(shared), res.PD.Changed)
		}
		for sig, p := range shared {
			if want := fresh(sig); !reflect.DeepEqual(p.Root, want.Root) {
				t.Fatalf("%s: the shared plan %s was written after it was built:\n%s\nfresh:\n%s", name, sig, p.Render(), want.Render())
			}
		}
	}

	tb := runScenario1(t, 11, 16)
	check("scenario 1", tb, 1, func(string) *plan.Plan { return freshPlan(t, tb.Cat, tb) })

	tb = planRegressionRig(t, 14, 12)
	after := freshPlan(t, tb.Cat, tb)
	restored := tb.Cat.Clone()
	restored.RestoreIndex(dbsys.IdxPartsuppPart)
	before := freshPlan(t, restored, tb)
	check("index drop", tb, 2, func(sig string) *plan.Plan {
		if sig == after.Signature() {
			return after
		}
		return before
	})
}

// TestPDReplaysOnDerivedState drives an instance that plans runs while
// Module PD replays the index event that changed its plan, concurrently,
// on the same testbed (run it under -race). PD must leave the live
// catalog at its version — it replays on a clone — so every run the
// driver plans after the drop uses the post-drop plan, and every replay
// still attributes the change to the drop.
func TestPDReplaysOnDerivedState(t *testing.T) {
	const runs = 24
	tb := scenarioRig(t, 14, runs)
	if err := faults.Inject(tb, &faults.IndexDrop{At: faultMidpoint(runs), Index: dbsys.IdxPartsuppPart}); err != nil {
		t.Fatal(err)
	}
	replay := func(in *Input) {
		for range 10 {
			v := in.Cat.Version()
			res, err := PlanDiffing(in)
			if err != nil {
				t.Error(err)
				return
			}
			if got := in.Cat.Version(); got != v {
				t.Errorf("PlanDiffing moved the live catalog from version %d to %d", v, got)
			}
			explained := false
			for _, c := range res.Causes {
				explained = explained || (c.Explains && c.Event.Kind == topology.EvIndexDropped)
			}
			if !res.Changed || !explained {
				t.Errorf("PD did not attribute the plan change to the drop: %+v", res.Causes)
			}
		}
	}
	var wg sync.WaitGroup
	started := false
	err := tb.SimulateStream(30*simtime.Minute, func(simtime.Time) error {
		hist := tb.RunsFor("Q2")
		changed := 0
		for _, r := range hist {
			if r.PlanSig != hist[0].PlanSig {
				changed++
			}
		}
		if started || changed < 2 {
			return nil
		}
		started = true
		in := inputFor(tb)
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replay(in)
			}()
		}
		return nil
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !started {
		t.Fatal("the index drop never changed the plan")
	}
	drop := tb.Cfg.Log.OfKind(topology.EvIndexDropped)[0].T
	hist := tb.RunsFor("Q2")
	pre, post := hist[0].PlanSig, hist[len(hist)-1].PlanSig
	for _, r := range hist {
		want := pre
		if r.Start > drop {
			want = post
		}
		if r.PlanSig != want {
			t.Errorf("run %s at %v planned %s, want %s (drop at %v)", r.RunID, r.Start, r.PlanSig, want, drop)
		}
	}
}
