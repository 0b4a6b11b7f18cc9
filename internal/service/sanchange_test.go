package service_test

import (
	"context"
	"fmt"
	"testing"

	"diads/internal/diag"
	"diads/internal/experiments"
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/symptoms"
	"diads/internal/testbed"
)

// TestDiagnosisFollowsSANChange diagnoses a faulted window of scenarios 1
// and 4 on the instance's pre-fault SAN configuration, applies the
// scenario's changes (V' created, zoned and LUN-mapped) to that
// configuration in place, as Testbed.Apply does on a live instance, and
// diagnoses the same window again. The second diagnosis must be the one
// a fresh diagnosis of the same input makes: the dependency paths run
// through V' now, so Module DA must see it.
func TestDiagnosisFollowsSANChange(t *testing.T) {
	for _, id := range []experiments.ScenarioID{experiments.S1SANMisconfig, experiments.S4ConcurrentDBAndSAN} {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("S%d/seed%d", id, seed), func(t *testing.T) {
				sc, err := experiments.Build(id, seed)
				if err != nil {
					t.Fatal(err)
				}
				pre, err := testbed.NewFigure1(seed)
				if err != nil {
					t.Fatal(err)
				}
				tb := sc.Testbed
				env := service.Env{
					Store: tb.Store, Cfg: pre.Cfg, Cat: tb.Cat, Opt: tb.Opt,
					Params: tb.Params, Stats: tb.Stats, Server: testbed.ServerDB,
					SymDB: symptoms.Builtin(),
				}
				_, unsat := sc.Input.LabeledRuns()
				last := unsat[len(unsat)-1]
				ev := monitor.SlowdownEvent{
					Instance: "t", Query: sc.Input.Query, RunID: last.RunID, At: last.Stop,
					Window: tb.Horizon, ReadWindow: tb.Horizon,
					Runs: sc.Input.Runs, Satisfactory: sc.Input.Satisfactory,
				}

				svc := service.New(service.Env{}, service.Config{Workers: 1})
				svc.AddInstance("t", env)
				var got *diag.Result
				svc.OnDiagnosis = func(_ monitor.SlowdownEvent, res *diag.Result) { got = res }
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				svc.Start(ctx)
				defer svc.Stop()
				diagnose := func() {
					t.Helper()
					if err := svc.Submit(ev); err != nil {
						t.Fatal(err)
					}
					svc.Wait()
				}

				diagnose()
				// Replaying the scenario's change log brings the pre-fault
				// configuration, and its log, to the scenario's.
				for _, ch := range tb.Cfg.Log.All() {
					if err := pre.Apply(ch); err != nil {
						t.Fatal(err)
					}
				}
				if pre.Cfg.Version() != tb.Cfg.Version() {
					t.Fatalf("configuration version %d after the replay, the scenario's %d", pre.Cfg.Version(), tb.Cfg.Version())
				}
				diagnose()

				if st := svc.Stats(); st.Completed != 2 || st.Failed != 0 {
					t.Fatalf("completed=%d failed=%d, want 2/0", st.Completed, st.Failed)
				}
				var inc *service.Incident
				for _, i := range svc.Registry().Incidents() {
					if i.Result == got {
						inc = &i
					}
				}
				if inc == nil {
					t.Fatal("no incident holds the second diagnosis")
				}
				want, err := diag.Diagnose(env.Input(ev.Query, ev.Runs, ev.Satisfactory))
				if err != nil {
					t.Fatal(err)
				}
				if g, w := inc.Result.Render(), want.Render(); g != w {
					t.Errorf("the diagnosis after the SAN change differs from a fresh one\n--- service\n%s\n--- fresh\n%s", g, w)
				}
			})
		}
	}
}
