package symptoms

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"diads/internal/simtime"
)

// The long way: Module SD's evaluation as it was before patterns were
// substituted into one buffer — a fresh string per pattern per binding
// through strings.ReplaceAll, the expression tree interpreted node by
// node, and each instance's true conditions appended to a slice of its
// own.

// refSubstitute replaces the bound variables longest first, ties
// lexicographically, each one over the text the ones before it left.
func refSubstitute(pattern string, bind map[string]string) string {
	if !strings.Contains(pattern, "$") {
		return pattern
	}
	keys := make([]string, 0, len(bind))
	for k := range bind {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int {
		if c := cmp.Compare(len(b), len(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	out := pattern
	for _, k := range keys {
		out = strings.ReplaceAll(out, k, bind[k])
	}
	return out
}

// refEval interprets an expression with per-call substitution.
func refEval(t *testing.T, e Expr, fb *FactBase, bind map[string]string) bool {
	switch e := e.(type) {
	case existsExpr:
		return fb.Exists(refSubstitute(e.pattern, bind))
	case geExpr:
		return fb.MaxScore(refSubstitute(e.pattern, bind)) >= e.c
	case notExpr:
		return !refEval(t, e.inner, fb, bind)
	case andExpr:
		for _, a := range e.args {
			if !refEval(t, a, fb, bind) {
				return false
			}
		}
		return true
	case orExpr:
		for _, a := range e.args {
			if refEval(t, a, fb, bind) {
				return true
			}
		}
		return false
	case beforeExpr:
		t1, ok1 := fb.EarliestT(refSubstitute(e.p1, bind))
		t2, ok2 := fb.EarliestT(refSubstitute(e.p2, bind))
		return ok1 && ok2 && t1 < t2
	}
	t.Fatalf("reference evaluator: unknown expression %T", e)
	return false
}

// refEvaluate scores every entry under every binding of its scope and
// ranks the instances.
func refEvaluate(t *testing.T, db *DB, fb *FactBase, bindings []Binding) []CauseInstance {
	var out []CauseInstance
	for _, e := range db.Entries() {
		for _, b := range bindings {
			if b.Scope != e.Scope {
				continue
			}
			var score float64
			var trueConds []string
			for _, c := range e.Conditions {
				if refEval(t, c.Expr, fb, b.Vars) {
					score += c.Weight
					trueConds = append(trueConds, c.Expr.String())
				}
			}
			out = append(out, CauseInstance{
				Kind:           e.Kind,
				Subject:        b.Subject,
				Confidence:     score,
				Category:       Categorize(score),
				Fix:            e.Fix,
				TrueConditions: trueConds,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Subject < out[j].Subject
	})
	return out
}

// refPatterns lists an expression's fact patterns.
func refPatterns(e Expr) []string {
	switch e := e.(type) {
	case existsExpr:
		return []string{e.pattern}
	case geExpr:
		return []string{e.pattern}
	case notExpr:
		return refPatterns(e.inner)
	case andExpr:
		var out []string
		for _, a := range e.args {
			out = append(out, refPatterns(a)...)
		}
		return out
	case orExpr:
		var out []string
		for _, a := range e.args {
			out = append(out, refPatterns(a)...)
		}
		return out
	case beforeExpr:
		return []string{e.p1, e.p2}
	}
	return nil
}

// handSrc exercises the substitution rules in every scope: chained
// values, an unbound $VOL beside a bound $V, repeated variables,
// $-free patterns, and every expression form.
const handSrc = `
cause hand-volume scope=volume fix="hand" {
  10: exists(pool-of:$P:$V)
  10: ge(metric-anomaly:$V:*, 0.5)
  10: before(new-volume-in-pool:$P, first-unsat-run)
  10: exists(vol:$VOL)
  10: and(exists(twice:$V:$V), exists(pair:$P-$P))
  10: exists(first-unsat-run)
  10: or(exists(nope:$V), ge(cos-leaf-frac:$V, 0.5))
  10: not(exists(record-anomaly:*))
  10: exists(alias:$A)
  10: ge(metric-anomaly:$VOL:*, 0.2)
}
cause hand-table scope=table {
  50: ge(record-anomaly:$T, 0.8)
  50: and(exists(table:$T), not(exists(table:$T:$T)))
}
cause hand-pool scope=pool {
  60: exists(pool-load-increase:$P)
  40: before(new-volume-in-pool:$P, first-unsat-run)
}
cause hand-server scope=server {
  70: ge(cpu-anomaly:$S, 0.5)
  30: exists($S)
}
cause hand-global scope=global {
  50: exists(plan-changed)
  50: or(exists(first-unsat-run), exists($X))
}
`

// TestEvaluateMatchesLongWayReference evaluates the built-in database, a
// mined entry and the hand entries above against fact bases that hold a
// random half of every substituted pattern, and demands the ranked
// instances deep-equal the long way's, true conditions and their order
// included.
func TestEvaluateMatchesLongWayReference(t *testing.T) {
	db := Builtin()
	var m Miner
	for i := 0; i < 3; i++ {
		m.AddIncident(Incident{Facts: incidentFacts(), CauseKind: "mystery-contention", Subject: "vol-V1"})
	}
	m.AddBackground(backgroundFacts())
	cands := m.Propose(3)
	if len(cands) != 1 {
		t.Fatalf("miner proposed %d entries, want 1", len(cands))
	}
	if err := db.Add(cands[0].Entry()); err != nil {
		t.Fatal(err)
	}
	for _, e := range MustParse(handSrc).Entries() {
		if err := db.Add(e); err != nil {
			t.Fatal(err)
		}
	}

	bindings := []Binding{
		{Scope: ScopeVolume, Subject: "vol-V1", Vars: map[string]string{"$V": "vol-V1", "$P": "pool-P1"}},
		{Scope: ScopeVolume, Subject: "vol-V2", Vars: map[string]string{"$V": "vol-V2", "$P": "pool-$V"}},
		{Scope: ScopeVolume, Subject: "vol-V3", Vars: map[string]string{"$V": "vol-V3", "$P": "pool-P2", "$A": "$P", "$VOL": "whole"}},
		{Scope: ScopeVolume, Subject: "vol-V4", Vars: map[string]string{"$V": "vol-V4"}},
		{Scope: ScopePool, Subject: "pool-P1", Vars: map[string]string{"$P": "pool-P1"}},
		{Scope: ScopePool, Subject: "pool-P2", Vars: map[string]string{"$P": "pool-P2"}},
		{Scope: ScopeTable, Subject: "partsupp", Vars: map[string]string{"$T": "partsupp"}},
		{Scope: ScopeTable, Subject: "part", Vars: map[string]string{"$T": "part"}},
		{Scope: ScopeServer, Subject: "srv-db", Vars: map[string]string{"$S": "srv-db"}},
		{Scope: ScopeGlobal, Subject: "Q2"},
		{Scope: ScopeGlobal, Subject: "Q5", Vars: map[string]string{}},
	}
	scopes := map[Scope]bool{}
	for _, b := range bindings {
		scopes[b.Scope] = true
	}
	if len(scopes) != 5 {
		t.Fatalf("bindings cover %d scopes, want all 5", len(scopes))
	}

	// Every pattern each binding can ask for, with its wildcards filled.
	var names []string
	for _, e := range db.Entries() {
		for _, b := range bindings {
			if b.Scope != e.Scope {
				continue
			}
			for _, c := range e.Conditions {
				for _, p := range refPatterns(c.Expr) {
					names = append(names, strings.ReplaceAll(refSubstitute(p, b.Vars), "*", "x"))
				}
			}
		}
	}
	slices.Sort(names)
	names = slices.Compact(names)

	compared, held := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fb := NewFactBase()
		for _, name := range names {
			switch rng.Intn(4) {
			case 0: // absent
			case 1:
				fb.Add(name, rng.Float64())
			default:
				fb.AddTimed(name, rng.Float64(), simtime.Time(rng.Intn(1000)))
			}
		}
		got := db.Evaluate(fb, bindings)
		want := refEvaluate(t, db, fb, bindings)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d: instance %d\n got %#v\nwant %#v", seed, i, got, want[i])
				}
			}
			t.Fatalf("seed %d: %d instances, long way %d", seed, len(got), len(want))
		}
		for _, ci := range got {
			held += len(ci.TrueConditions)
			if n := len(ci.TrueConditions); n > 0 && cap(ci.TrueConditions) != n {
				t.Fatalf("seed %d: %s keeps %d true conditions in capacity %d", seed, fmt.Sprint(ci), n, cap(ci.TrueConditions))
			}
		}
		compared += len(got)
	}
	if compared == 0 || held == 0 {
		t.Fatalf("compared %d instances holding %d true conditions", compared, held)
	}
}
