package experiments

import (
	"strings"
	"testing"

	"diads/internal/symptoms"
)

// TestFleetScenarioEndToEnd runs the canonical 8-instance fleet scenario
// and checks the acceptance criteria: concurrent streaming with the
// shared-pool fault folded into one correlated cross-instance incident,
// and a symptom mined from some instances' confirmed incidents applied
// during other instances' diagnoses within the same run (measured
// against the learning-off baseline).
func TestFleetScenarioEndToEnd(t *testing.T) {
	res, err := Fleet(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if res.Instances != 8 || res.Degraded != 6 {
		t.Fatalf("scenario sizing = %d/%d, want 8 instances with 6 degraded",
			res.Instances, res.Degraded)
	}
	if !res.Correct {
		t.Errorf("correlated incident incorrect:\n%s", rep.Render())
	}
	if len(res.Lags) != res.Degraded {
		t.Errorf("detection on %d/%d degraded instances", len(res.Lags), res.Degraded)
	}
	for i, lag := range res.Lags {
		if lag <= 0 {
			t.Errorf("instance %d: detection lag %v, want > 0", i, lag)
		}
	}
	st := rep.Stats
	if st.Completed == 0 || st.Failed != 0 || st.Rejected != 0 {
		t.Fatalf("service: %+v — want diagnoses completed with none failed or shed", st)
	}
	if st.APG.Hits == 0 {
		t.Errorf("shared APG cache never hit across %d same-plan diagnoses", st.Completed)
	}

	// One correlated incident, not six per-instance ones.
	sharedGroups := 0
	for _, g := range rep.Groups {
		if g.Shared {
			sharedGroups++
		}
	}
	if sharedGroups != 1 {
		t.Errorf("shared groups = %d, want exactly 1:\n%s", sharedGroups, rep.Render())
	}
	env, err := BuildOnline(OnlineSpec{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	answer := env.Fault.Answer(env.Testbed)
	if g := rep.SharedGroup(); g == nil || !Named(g.Kind, g.Subject, answer) {
		t.Fatalf("shared group = %+v, want one of %v", g, answer)
	}

	// The learning loop closed: an entry was mined from confirmed
	// incidents on some (author) instances and applied during
	// diagnoses on other instances in the same run.
	learn := rep.Learning
	if len(learn.Installed) == 0 {
		t.Fatal("no mined entry was installed into the shared symptoms database")
	}
	if learn.Transfers == 0 || len(learn.TransferInstances) == 0 {
		t.Fatalf("no cross-instance symptom transfer:\n%s", rep.Render())
	}
	authors := make(map[string]bool)
	for _, e := range learn.Installed {
		if len(e.Sources) == 0 {
			t.Errorf("installed entry %s has no author instances", e.Kind)
		}
		for _, s := range e.Sources {
			authors[s] = true
		}
	}
	for _, inst := range learn.TransferInstances {
		if authors[inst] {
			t.Errorf("instance %s counted as both author and transfer beneficiary", inst)
		}
	}
	// The before/after: without the learning loop, nothing transfers.
	if res.Baseline == nil {
		t.Fatal("baseline (learning-off) run missing")
	}
	if res.Baseline.Learning.Transfers != 0 || len(res.Baseline.Learning.Installed) != 0 {
		t.Errorf("learning-off baseline mined or transferred: %+v", res.Baseline.Learning)
	}

	out := res.Render()
	for _, want := range []string{
		"correlated incident  correct true",
		"symptom transfer     before: 0 applications",
		"fleet incidents — 8 instances (6 on the shared pool)",
		symptoms.CauseSANMisconfig + symptoms.MinedSuffix,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
