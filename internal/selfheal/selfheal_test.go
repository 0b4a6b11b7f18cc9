package selfheal

import (
	"strings"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/symptoms"
	"diads/internal/testbed"
)

func cause(kind, subject string) symptoms.CauseInstance {
	return symptoms.CauseInstance{
		Kind: kind, Subject: subject, Confidence: 95, Category: symptoms.High,
	}
}

func TestPlanCoversEveryBuiltinCause(t *testing.T) {
	for _, kind := range []string{
		symptoms.CauseSANMisconfig, symptoms.CauseExternalLoad,
		symptoms.CauseDataProperty, symptoms.CauseLockContention,
		symptoms.CausePlanRegression, symptoms.CauseCPUSaturation,
		symptoms.CauseDiskFailure, symptoms.CauseRAIDRebuild,
	} {
		r, err := Plan(cause(kind, "subject"))
		if err != nil {
			t.Errorf("no remedy for %s: %v", kind, err)
			continue
		}
		if r.Description == "" || r.Layer == "" || r.Apply == nil {
			t.Errorf("incomplete remedy for %s: %+v", kind, r)
		}
	}
	if _, err := Plan(cause("unknown-cause", "x")); err == nil {
		t.Fatalf("unknown cause should have no remedy")
	}
}

func TestPlanRegressionRemedyRestoresIndex(t *testing.T) {
	tb, err := testbed.NewFigure1(71)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Cat.DropIndex(dbsys.IdxPartsuppPart) {
		t.Fatal("drop failed")
	}
	r, err := Plan(cause(symptoms.CausePlanRegression, dbsys.IdxPartsuppPart))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Description, "recreate") {
		t.Fatalf("remedy description: %s", r.Description)
	}
	if err := r.Apply(tb, 7200); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Cat.IndexOn(dbsys.TPartsupp, "ps_partkey"); !ok {
		t.Fatalf("index should be restored")
	}
	if evs := tb.Cfg.Log.OfKind("IndexCreated"); len(evs) != 1 || evs[0].T != 7200 {
		t.Fatalf("heal should log the index recreation at the time it is applied: %+v", evs)
	}
	// Applying against a missing index fails loudly.
	r2, _ := Plan(cause(symptoms.CausePlanRegression, "no_such_index"))
	if err := r2.Apply(tb, 7200); err == nil {
		t.Fatalf("restoring an unknown index should fail")
	}
}

func TestDataPropertyRemedyRefreshesStats(t *testing.T) {
	tb, err := testbed.NewFigure1(72)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Cat.ScaleRows(dbsys.TPartsupp, 2.0); err != nil {
		t.Fatal(err)
	}
	staleRows := tb.Stats.RowsOf(dbsys.TPartsupp)
	r, err := Plan(cause(symptoms.CauseDataProperty, dbsys.TPartsupp))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(tb, 7200); err != nil {
		t.Fatal(err)
	}
	if tb.Stats.RowsOf(dbsys.TPartsupp) != 2*staleRows {
		t.Fatalf("ANALYZE remedy should refresh statistics: %d vs stale %d",
			tb.Stats.RowsOf(dbsys.TPartsupp), staleRows)
	}
	if tb.Engine.StatsBase.RowsOf(dbsys.TPartsupp) != 2*staleRows {
		t.Fatalf("engine's stats base should refresh too")
	}
}

func TestVerify(t *testing.T) {
	if ok, _ := Verify(10, 11, 0.2); !ok {
		t.Fatalf("10%% over baseline within 20%% tolerance should pass")
	}
	if ok, _ := Verify(10, 14, 0.2); ok {
		t.Fatalf("40%% over baseline should fail at 20%% tolerance")
	}
	if ok, msg := Verify(0, 5, 0.2); ok || msg == "" {
		t.Fatalf("no baseline should fail with a message")
	}
}

func TestSeverityOrdering(t *testing.T) {
	db, _ := Plan(cause(symptoms.CauseLockContention, "t"))
	st, _ := Plan(cause(symptoms.CauseSANMisconfig, "v"))
	if Severity(db) >= Severity(st) {
		t.Fatalf("database fixes should order before storage fixes")
	}
}
