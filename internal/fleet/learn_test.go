// Learner lifecycle tests live in the fleet package itself: they drive
// the candidate lifecycle — proposed → validated → installed/rejected —
// directly with synthetic incidents and healthy fact bases, without
// streaming a whole fleet.
package fleet

import (
	"strings"
	"testing"

	"diads/internal/diag"
	"diads/internal/service"
	"diads/internal/symptoms"
)

func testFacts(scores map[string]float64) *symptoms.FactBase {
	fb := symptoms.NewFactBase()
	for name, s := range scores {
		fb.Add(name, s)
	}
	return fb
}

// confirmed builds a registry incident that clears the confirmation bar.
func confirmed(instance, query, kind string, facts *symptoms.FactBase) service.Incident {
	return service.Incident{
		Instance: instance, Query: query, Kind: kind, Subject: "vol-V1",
		Confidence: 95, Events: 3,
		Result: &diag.Result{Facts: facts},
	}
}

// TestLearnerRejectsBackgroundCandidate is the regression test for the
// dead background filter: incidents whose only common fact is an
// always-present one used to become an installed entry with vacuous
// conditions (AddBackground was never called, so filterBackground was a
// no-op). Now the candidate is proposed before any healthy evidence
// exists, deferred until the corpus fills, and rejected — visibly, with
// the offending condition named — once the healthy corpus shows the
// fact is background.
func TestLearnerRejectsBackgroundCandidate(t *testing.T) {
	symdb := symptoms.NewDB()
	l := newLearner(LearnConfig{}, symdb)

	ambient := map[string]float64{"ambient-load:pool-P1": 0.9}
	l.observe([]service.Incident{
		confirmed("inst-0", "Q2", "noise-cause", testFacts(ambient)),
		confirmed("inst-1", "Q2", "noise-cause", testFacts(ambient)),
	})
	l.step()
	st := l.stats()
	if len(st.Installed) != 0 {
		t.Fatalf("nothing may install before validation, got %v", st.Installed)
	}
	if len(st.Pending) != 1 || !strings.Contains(st.Pending[0].State, "healthy corpus") {
		t.Fatalf("candidate should be pending on the corpus, got %+v", st.Pending)
	}

	// Healthy corpus arrives carrying the same always-present fact;
	// a third confirmation fills the hold-out set (every 3rd is
	// withheld), unblocking validation.
	l.addHealthy(testFacts(map[string]float64{"ambient-load:pool-P1": 0.92}))
	l.observe([]service.Incident{
		confirmed("inst-2", "Q2", "noise-cause", testFacts(ambient)),
	})
	l.step()

	st = l.stats()
	if len(st.Installed) != 0 || len(st.Pending) != 0 {
		t.Fatalf("background candidate must not install or linger: %+v", st)
	}
	if len(st.Rejected) != 1 {
		t.Fatalf("want 1 rejected candidate, got %+v", st.Rejected)
	}
	rej := st.Rejected[0]
	if rej.Kind != "noise-cause"+symptoms.MinedSuffix {
		t.Errorf("rejected kind = %q", rej.Kind)
	}
	// The whole entry fires on the healthy base (its only condition is
	// the ambient fact), so the rejection cites the false-positive rate,
	// and the per-condition record pins which condition is background.
	if !strings.Contains(rej.Reason, "false positives") {
		t.Errorf("reason should cite the healthy replay: %q", rej.Reason)
	}
	found := false
	for _, c := range rej.Validation.Conditions {
		if strings.Contains(c.Expr, "ambient-load:pool-P1") && c.HealthyHits == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("per-condition record should name the background condition: %+v",
			rej.Validation.Conditions)
	}
	if len(symdb.Entries()) != 0 {
		t.Fatalf("database must stay empty, has %d entries", len(symdb.Entries()))
	}

	// The rejection is final: further steps neither retry nor duplicate.
	l.step()
	if st := l.stats(); len(st.Rejected) != 1 || len(st.Pending) != 0 {
		t.Fatalf("rejection must be recorded once and never retried: %+v", st)
	}
}

// TestLearnerBackgroundFilterFeedsMiner pins the satellite fix: healthy
// fact bases reach Miner.AddBackground (one addHealthy entry point
// feeds both the miner and the validator), so an always-present fact
// no longer survives into a mined entry's conditions.
func TestLearnerBackgroundFilterFeedsMiner(t *testing.T) {
	symdb := symptoms.NewDB()
	l := newLearner(LearnConfig{}, symdb)

	// The healthy corpus is captured before the incidents confirm —
	// the quiet-window probe order in a real fleet run.
	l.addHealthy(testFacts(map[string]float64{"ambient-load:pool-P1": 0.9}))

	mixed := map[string]float64{"ambient-load:pool-P1": 0.9, "real-symptom:vol-V1": 0.95}
	l.observe([]service.Incident{
		confirmed("inst-0", "Q2", "san-contention", testFacts(mixed)),
		confirmed("inst-1", "Q2", "san-contention", testFacts(mixed)),
		confirmed("inst-2", "Q2", "san-contention", testFacts(mixed)),
	})
	l.step()

	st := l.stats()
	if len(st.Installed) != 1 {
		t.Fatalf("discriminative candidate should install, got %+v", st)
	}
	entry := st.Installed[0].Entry
	rendered := entry.Render()
	if strings.Contains(rendered, "ambient-load") {
		t.Fatalf("always-present fact survived into the installed conditions:\n%s", rendered)
	}
	if !strings.Contains(rendered, "real-symptom:vol-V1") {
		t.Fatalf("discriminative fact missing from the installed conditions:\n%s", rendered)
	}
	if st.Confirmed != 2 || st.HeldOut != 1 || st.Healthy != 1 {
		t.Fatalf("evidence counters wrong: %+v", st)
	}
}

// TestLearnerHoldoutRoutingAndAuthors pins that every third
// confirmation of a kind is withheld for validation, its instance never
// becomes an author, and transfers count exactly for non-authors.
func TestLearnerHoldoutRoutingAndAuthors(t *testing.T) {
	l := newLearner(LearnConfig{}, symptoms.NewDB())
	l.addHealthy(testFacts(map[string]float64{"other": 0.9}))
	facts := map[string]float64{"real-symptom:vol-V1": 0.95}
	l.observe([]service.Incident{
		confirmed("inst-0", "Q2", "san-contention", testFacts(facts)),
		confirmed("inst-1", "Q2", "san-contention", testFacts(facts)),
		confirmed("inst-2", "Q2", "san-contention", testFacts(facts)),
	})
	l.step()

	st := l.stats()
	if len(st.Installed) != 1 {
		t.Fatalf("want an install, got %+v", st)
	}
	if got := st.Installed[0].Sources; len(got) != 2 || got[0] != "inst-0" || got[1] != "inst-1" {
		t.Fatalf("authors = %v, want the two mined instances (hold-out inst-2 excluded)", got)
	}
	kind := st.Installed[0].Kind
	if l.transferIn(kind, "inst-0") {
		t.Error("an author must not count as a transfer beneficiary")
	}
	if !l.transferIn(kind, "inst-2") {
		t.Error("the hold-out instance is a beneficiary: its high score is a transfer")
	}
	if l.transferIn("never-installed"+symptoms.MinedSuffix, "inst-5") {
		t.Error("uninstalled kinds cannot transfer")
	}
}

// TestLearnerOperatorReviewGate pins the ReviewOperator policy: a
// validated candidate waits for the operator, a rejecting reviewer
// retires it, an accepting reviewer installs it.
func TestLearnerOperatorReviewGate(t *testing.T) {
	facts := map[string]float64{"real-symptom:vol-V1": 0.95}
	seed := func(cfg LearnConfig, symdb *symptoms.DB) *learner {
		l := newLearner(cfg, symdb)
		l.addHealthy(testFacts(map[string]float64{"other": 0.9}))
		l.observe([]service.Incident{
			confirmed("inst-0", "Q2", "san-contention", testFacts(facts)),
			confirmed("inst-1", "Q2", "san-contention", testFacts(facts)),
			confirmed("inst-2", "Q2", "san-contention", testFacts(facts)),
		})
		l.step()
		return l
	}

	db := symptoms.NewDB()
	l := seed(LearnConfig{Review: ReviewOperator}, db)
	st := l.stats()
	if len(st.Installed) != 0 || len(db.Entries()) != 0 {
		t.Fatalf("nothing may install without the operator's ack: %+v", st)
	}
	if len(st.Pending) != 1 || !strings.Contains(st.Pending[0].State, "awaiting operator review") {
		t.Fatalf("validated candidate should await review, got %+v", st.Pending)
	}
	if !strings.Contains(st.Pending[0].Rendered, "cause san-contention"+symptoms.MinedSuffix) {
		t.Fatalf("pending candidate must surface its DSL for the ack:\n%s", st.Pending[0].Rendered)
	}

	l = seed(LearnConfig{
		Review:   ReviewOperator,
		Reviewer: func(symptoms.CandidateEntry, symptoms.Validation) bool { return false },
	}, symptoms.NewDB())
	st = l.stats()
	if len(st.Rejected) != 1 || st.Rejected[0].Reason != "operator rejected" {
		t.Fatalf("rejecting reviewer should retire the candidate: %+v", st)
	}

	db = symptoms.NewDB()
	l = seed(LearnConfig{
		Review:   ReviewOperator,
		Reviewer: func(symptoms.CandidateEntry, symptoms.Validation) bool { return true },
	}, db)
	st = l.stats()
	if len(st.Installed) != 1 || len(db.Entries()) != 1 {
		t.Fatalf("accepting reviewer should install: %+v", st)
	}
}

// TestLearnerRecordsInstallErrorAndStopsRetrying pins the satellite
// bugfix for the silently-swallowed symdb.Add error: a candidate the
// database refuses is retired with the error as its reason, visible in
// LearnStats, and is never proposed or re-installed again.
func TestLearnerRecordsInstallErrorAndStopsRetrying(t *testing.T) {
	symdb := symptoms.NewDB()
	l := newLearner(LearnConfig{}, symdb)

	// A candidate with weights that cannot sum to 100 — the database
	// must refuse it. (The miner never produces one, but install must
	// not trust that.)
	kind := "broken" + symptoms.MinedSuffix
	c := &candidate{cand: symptoms.CandidateEntry{
		CauseKind: kind,
		Conditions: []symptoms.Condition{
			{Weight: 50, Expr: symptoms.MustParseExpr("ge(x, 0.8)")},
		},
	}}
	l.pending[kind] = c
	l.pendingOrder = append(l.pendingOrder, kind)
	l.install(kind, c)

	st := l.stats()
	if len(st.Rejected) != 1 || !strings.HasPrefix(st.Rejected[0].Reason, "install:") {
		t.Fatalf("install error must be recorded with its reason: %+v", st.Rejected)
	}
	if len(symdb.Entries()) != 0 {
		t.Fatal("refused entry must not be in the database")
	}

	// The same kind re-proposed by the miner is dropped at the door.
	l.addHealthy(testFacts(map[string]float64{"other": 0.9}))
	l.observe([]service.Incident{
		confirmed("inst-0", "Q2", "broken", testFacts(map[string]float64{"x": 0.9})),
		confirmed("inst-1", "Q2", "broken", testFacts(map[string]float64{"x": 0.9})),
		confirmed("inst-2", "Q2", "broken", testFacts(map[string]float64{"x": 0.9})),
	})
	l.step()
	if st := l.stats(); len(st.Rejected) != 1 || len(st.Pending) != 0 || len(st.Installed) != 0 {
		t.Fatalf("rejected kind must never be retried: %+v", st)
	}
}

// TestLearnerSkipsPreinstalledKinds pins the reload path: mined entries
// already present in the database (persisted from an earlier run and
// reloaded through Parse) are not re-proposed, re-validated, or
// re-installed.
func TestLearnerSkipsPreinstalledKinds(t *testing.T) {
	symdb := symptoms.NewDB()
	pre := symptoms.Entry{
		Kind:  "san-contention" + symptoms.MinedSuffix,
		Scope: symptoms.ScopeGlobal,
		Conditions: []symptoms.Condition{
			{Weight: 100, Expr: symptoms.MustParseExpr("ge(real-symptom:vol-V1, 0.8)")},
		},
	}
	if err := symdb.Add(pre); err != nil {
		t.Fatal(err)
	}
	l := newLearner(LearnConfig{}, symdb)
	l.addHealthy(testFacts(map[string]float64{"other": 0.9}))
	facts := map[string]float64{"real-symptom:vol-V1": 0.95}
	l.observe([]service.Incident{
		confirmed("inst-0", "Q2", "san-contention", testFacts(facts)),
		confirmed("inst-1", "Q2", "san-contention", testFacts(facts)),
		confirmed("inst-2", "Q2", "san-contention", testFacts(facts)),
	})
	l.step()
	st := l.stats()
	if len(st.Installed) != 0 || len(st.Pending) != 0 || len(st.Rejected) != 0 {
		t.Fatalf("preinstalled kind must be skipped entirely: %+v", st)
	}
	if len(symdb.Entries()) != 1 {
		t.Fatalf("database grew to %d entries, want the 1 preinstalled", len(symdb.Entries()))
	}
}
