package diag_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"diads/internal/apg"
	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/experiments"
	"diads/internal/kde"
	"diads/internal/plan"
	"diads/internal/simtime"
	"diads/internal/symptoms"
)

// This file extends da_reference_test.go's method from Module DA to the
// whole Result: every derive-once shortcut of a cold diagnosis — the
// memoised plan signature, the seeded runs-on-plan partitions, the
// per-volume dependency paths, concatenated fact names, the fact index,
// the precomputed condition text, KDE fitted on a stack buffer — is held
// to a reference that derives the same thing the long way, from public
// per-call APIs and fmt. The references below must not share code with
// what they check.

// refSignature is the plan signature as a fresh fmt walk.
func refSignature(p *plan.Plan) string {
	var b strings.Builder
	var walk func(n *plan.Node, depth int)
	walk = func(n *plan.Node, depth int) {
		fmt.Fprintf(&b, "%d:%s:%s:%s:%s;", depth, n.Type, n.Table, n.Index, n.Alias)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
		for _, s := range n.SubPlans {
			b.WriteString("sub;")
			walk(s, depth+1)
		}
	}
	walk(p.Root, 0)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// refRunsOnPlan filters runs per call by a freshly walked signature.
func refRunsOnPlan(runs []*exec.RunRecord, p *plan.Plan) []*exec.RunRecord {
	sig := refSignature(p)
	var out []*exec.RunRecord
	for _, r := range runs {
		if r.PlanSig == sig {
			out = append(out, r)
		}
	}
	return out
}

// refAnomalyScore is kde.AnomalyScore through the heap-allocated
// estimator: NewEstimator's copy-and-sort, then the mean CDF.
func refAnomalyScore(t *testing.T, sat, unsat []float64) float64 {
	t.Helper()
	est, err := kde.NewEstimator(sat)
	if err != nil || len(unsat) == 0 {
		t.Fatalf("reference KDE: %d satisfactory, %d unsatisfactory samples: %v", len(sat), len(unsat), err)
	}
	var sum float64
	for _, u := range unsat {
		sum += est.CDF(u)
	}
	return sum / float64(len(unsat))
}

func opValues(runs []*exec.RunRecord, opID int, of func(*exec.OpRun) float64) []float64 {
	var out []float64
	for _, r := range runs {
		if op := r.Op(opID); op != nil {
			out = append(out, of(op))
		}
	}
	return out
}

func sameScores(t *testing.T, what string, got, want []diag.OperatorScore) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Type != want[i].Type || got[i].Table != want[i].Table ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Errorf("%s[%d] = %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// refFactBase answers the fact readers by scanning a flat list with
// MatchPattern — no index, no map.
type refFactBase []symptoms.Fact

func (r refFactBase) match(pattern string) []symptoms.Fact {
	var out []symptoms.Fact
	for _, f := range r {
		if symptoms.MatchPattern(pattern, f.Name) {
			out = append(out, f)
		}
	}
	return out
}

func (r refFactBase) maxScore(pattern string) float64 {
	var max float64
	for _, f := range r.match(pattern) {
		max = math.Max(max, f.Score)
	}
	return max
}

func (r refFactBase) earliestT(pattern string) (simtime.Time, bool) {
	best, found := simtime.Time(0), false
	for _, f := range r.match(pattern) {
		if f.HasT && (!found || f.T < best) {
			best, found = f.T, true
		}
	}
	return best, found
}

// refSubstitute binds template variables longest key first, ties
// lexicographically, through an allocated, sort.Slice-ordered key list.
func refSubstitute(pattern string, vars map[string]string) string {
	keys := make([]string, 0, len(vars))
	for k := range vars {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) > len(keys[j])
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		pattern = strings.ReplaceAll(pattern, k, vars[k])
	}
	return pattern
}

// refEval interprets one symptom expression from its DSL text against
// the scanning fact base. It returns the truth value and the unread rest.
func refEval(t *testing.T, src string, fb refFactBase, vars map[string]string) (bool, string) {
	t.Helper()
	open := strings.IndexByte(src, '(')
	if open < 0 {
		t.Fatalf("reference evaluator: no call in %q", src)
	}
	fn, rest := strings.TrimSpace(src[:open]), src[open+1:]
	pattern := func() string { // up to the next ',' or ')'
		end := strings.IndexAny(rest, ",)")
		p := strings.TrimSpace(rest[:end])
		rest = rest[end:]
		return refSubstitute(p, vars)
	}
	skip := func(c byte) {
		rest = strings.TrimLeft(rest, " ")
		if rest == "" || rest[0] != c {
			t.Fatalf("reference evaluator: want %q at %q", c, rest)
		}
		rest = rest[1:]
	}
	var v bool
	switch fn {
	case "exists":
		v = fb.maxScore(pattern()) > 0
	case "ge":
		p := pattern()
		skip(',')
		end := strings.IndexByte(rest, ')')
		c, err := strconv.ParseFloat(strings.TrimSpace(rest[:end]), 64)
		if err != nil {
			t.Fatalf("reference evaluator: threshold in %q: %v", src, err)
		}
		rest = rest[end:]
		v = fb.maxScore(p) >= c
	case "before":
		p1 := pattern()
		skip(',')
		t1, ok1 := fb.earliestT(p1)
		t2, ok2 := fb.earliestT(pattern())
		v = ok1 && ok2 && t1 < t2
	case "not":
		v, rest = refEval(t, rest, fb, vars)
		v = !v
	case "and", "or":
		v = fn == "and"
		for {
			var arg bool
			arg, rest = refEval(t, rest, fb, vars)
			if fn == "and" {
				v = v && arg
			} else {
				v = v || arg
			}
			if rest = strings.TrimLeft(rest, " "); rest == "" || rest[0] != ',' {
				break
			}
			rest = rest[1:]
		}
	default:
		t.Fatalf("reference evaluator: unknown function %q in %q", fn, src)
	}
	skip(')')
	return v, rest
}

// refCauses scores every entry under every binding of its scope and
// ranks the instances as Module SD does.
func refCauses(t *testing.T, db *symptoms.DB, fb refFactBase, bindings []symptoms.Binding) []symptoms.CauseInstance {
	t.Helper()
	var out []symptoms.CauseInstance
	for _, e := range db.Entries() {
		for _, b := range bindings {
			if b.Scope != e.Scope {
				continue
			}
			ci := symptoms.CauseInstance{Kind: e.Kind, Subject: b.Subject, Fix: e.Fix}
			for _, c := range e.Conditions {
				text := c.Expr.String()
				if holds, _ := refEval(t, text, fb, b.Vars); holds {
					ci.Confidence += c.Weight
					ci.TrueConditions = append(ci.TrueConditions, text)
				}
			}
			ci.Category = symptoms.Categorize(ci.Confidence)
			out = append(out, ci)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
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

// TestResultBitIdenticalToLongWayReference diagnoses the nine scenarios
// through the pipeline and demands the whole Result equal the references.
func TestResultBitIdenticalToLongWayReference(t *testing.T) {
	drilled := 0
	for id := experiments.S1SANMisconfig; id <= experiments.SRAIDRebuild; id++ {
		sc, err := experiments.Build(id, 700+int64(id))
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		in := sc.Input
		res, err := diag.Diagnose(in)
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}

		// (B) the memoised signature is the fresh walk, on every plan in
		// the history, and is what the run records carry.
		for _, r := range in.Runs {
			if want := refSignature(r.Plan); r.Plan.Signature() != want || r.PlanSig != want {
				t.Fatalf("scenario %d run %s: Signature %s, PlanSig %s, fresh walk %s", id, r.RunID, r.Plan.Signature(), r.PlanSig, want)
			}
		}
		if res.PD.SatSig != refSignature(res.PD.SatPlan) || res.PD.UnsatSig != refSignature(res.PD.UnsatPlan) {
			t.Fatalf("scenario %d: PD signatures %s/%s differ from fresh walks", id, res.PD.SatSig, res.PD.UnsatSig)
		}
		if res.PD.Changed { // plan regression: PD short-circuits the drill-down
			continue
		}
		drilled++
		what := func(s string) string { return fmt.Sprintf("scenario %d %s", id, s) }
		p := res.APG.Plan
		satRuns, unsatRuns := in.LabeledRuns()
		sat, unsat := refRunsOnPlan(satRuns, p), refRunsOnPlan(unsatRuns, p)

		// (B) per-leaf dependency paths; interior paths derive from them.
		for _, leaf := range p.Leaves() {
			vol, err := in.Cat.VolumeOf(leaf.Table)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := in.Cfg.VolumeDependencyPath(in.Server, vol)
			if err != nil {
				t.Fatal(err)
			}
			got := res.APG.DependencyPath(leaf.ID)
			if !slices.Equal(got.Inner, append(dp.Inner, apg.DBComponent)) || !slices.Equal(got.Outer, dp.Outer) {
				t.Fatalf("%s: paths %v, per-leaf reference %v", what("O"+strconv.Itoa(leaf.ID)), got, dp)
			}
		}

		// CO: every operator but the root, KDE through NewEstimator.
		var wantCO []diag.OperatorScore
		var wantCOS []int
		for _, n := range p.Nodes() {
			if n.ID == p.Root.ID {
				continue
			}
			recorded := func(op *exec.OpRun) float64 { return float64(op.Recorded) }
			score := refAnomalyScore(t, opValues(sat, n.ID, recorded), opValues(unsat, n.ID, recorded))
			wantCO = append(wantCO, diag.OperatorScore{ID: n.ID, Type: n.Type, Table: n.Table, Score: score})
			if score > in.Threshold0() {
				wantCOS = append(wantCOS, n.ID)
			}
		}
		sameScores(t, what("CO.Scores"), res.CO.Scores, wantCO)
		if !slices.Equal(res.CO.COS, wantCOS) {
			t.Fatalf("%s = %v, reference %v", what("COS"), res.CO.COS, wantCOS)
		}

		// CR: the COS operators' record counts.
		var wantCR []diag.OperatorScore
		for _, opID := range wantCOS {
			n := p.MustNode(opID)
			rows := func(op *exec.OpRun) float64 { return op.ActRows }
			score := refAnomalyScore(t, opValues(sat, opID, rows), opValues(unsat, opID, rows))
			wantCR = append(wantCR, diag.OperatorScore{ID: opID, Type: n.Type, Table: n.Table, Score: score})
		}
		sameScores(t, what("CR.Scores"), res.CR.Scores, wantCR)

		// DA: da_reference_test.go's per-call reference.
		wantDA := referenceDAScores(in, res, kde.AnomalyScore)
		if len(res.DA.Scores) != len(wantDA) {
			t.Fatalf("%s: %d scores, reference %d", what("DA"), len(res.DA.Scores), len(wantDA))
		}
		for i, w := range wantDA {
			if g := res.DA.Scores[i]; g.Component != w.Component || g.Metric != w.Metric || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Errorf("%s[%d] = %+v, reference %+v", what("DA.Scores"), i, g, w)
			}
		}

		// Facts: sorted, unique, and the three fmt-built name families
		// are exactly the module outputs and the change log, by fmt.
		all := res.Facts.All()
		byName := map[string]symptoms.Fact{}
		for i, f := range all {
			if i > 0 && all[i-1].Name >= f.Name {
				t.Fatalf("%s: All() out of order at %q, %q", what("facts"), all[i-1].Name, f.Name)
			}
			byName[f.Name] = f
		}
		wantNames := map[string]bool{}
		for _, s := range wantCO {
			name := fmt.Sprintf("op-anomaly:O%d", s.ID)
			wantNames[name] = true
			if f, ok := byName[name]; !ok || math.Float64bits(f.Score) != math.Float64bits(s.Score) || f.HasT {
				t.Errorf("%s: fact %q = %+v (present %v), want score %v", what("facts"), name, f, ok, s.Score)
			}
		}
		for _, s := range wantDA {
			name := fmt.Sprintf("metric-anomaly:%s:%s", s.Component, s.Metric)
			wantNames[name] = true
			if f, ok := byName[name]; !ok || math.Float64bits(f.Score) != math.Float64bits(s.Score) || f.HasT {
				t.Errorf("%s: fact %q = %+v (present %v), want score %v", what("facts"), name, f, ok, s.Score)
			}
		}
		firstAt := map[string]simtime.Time{}
		for _, ev := range in.Cfg.Log.All() {
			name := fmt.Sprintf("event:%s:%s", ev.Kind, ev.Subject)
			if at, ok := firstAt[name]; !ok || ev.T < at {
				firstAt[name] = ev.T
			}
		}
		for name, at := range firstAt {
			wantNames[name] = true
			if f, ok := byName[name]; !ok || f.Score != 1 || !f.HasT || f.T != at {
				t.Errorf("%s: fact %q = %+v (present %v), want score 1 at %v", what("facts"), name, f, ok, at)
			}
		}
		for _, f := range all {
			for _, family := range []string{"op-anomaly:", "metric-anomaly:", "event:"} {
				if strings.HasPrefix(f.Name, family) && !wantNames[f.Name] {
					t.Errorf("%s: fact %q is in no fmt-built family member list", what("facts"), f.Name)
				}
			}
		}

		// SD: the DSL interpreted over a scan of those facts, bindings
		// substituted the allocated way — ranked causes, TrueConditions.
		if in.SymDB == nil {
			t.Fatalf("scenario %d has no symptoms database", id)
		}
		wantCauses := refCauses(t, in.SymDB, refFactBase(all), diag.Bindings(in, res.APG))
		if len(res.Causes) != len(wantCauses) {
			t.Fatalf("%s: %d causes, reference %d", what("SD"), len(res.Causes), len(wantCauses))
		}
		for i, w := range wantCauses {
			g := res.Causes[i]
			if g.Kind != w.Kind || g.Subject != w.Subject || g.Category != w.Category || g.Fix != w.Fix ||
				math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) || !slices.Equal(g.TrueConditions, w.TrueConditions) {
				t.Errorf("%s[%d] = %+v, reference %+v", what("Causes"), i, g, w)
			}
		}

		// IA: the module called on the un-seeded Input filters runs per
		// call; the pipeline's seeded partitions must change nothing.
		wantIA, err := diag.ImpactAnalysis(in, res.APG, res.CO, wantCauses)
		if err != nil {
			t.Fatal(err)
		}
		var wantExtra simtime.Duration
		for _, r := range unsat {
			wantExtra += r.Duration()
		}
		wantExtra /= simtime.Duration(len(unsat))
		var satMean simtime.Duration
		for _, r := range sat {
			satMean += r.Duration()
		}
		wantExtra -= satMean / simtime.Duration(len(sat))
		if res.IA.ExtraPlanTime != wantExtra || wantIA.ExtraPlanTime != wantExtra {
			t.Errorf("%s = %v (per call %v), reference %v", what("IA.ExtraPlanTime"), res.IA.ExtraPlanTime, wantIA.ExtraPlanTime, wantExtra)
		}
		if len(res.IA.Items) != len(wantIA.Items) {
			t.Fatalf("%s: %d items, per-call reference %d", what("IA"), len(res.IA.Items), len(wantIA.Items))
		}
		for i, w := range wantIA.Items {
			g := res.IA.Items[i]
			if g.Cause.Kind != w.Cause.Kind || g.Cause.Subject != w.Cause.Subject ||
				math.Float64bits(g.Score) != math.Float64bits(w.Score) || !slices.Equal(g.Ops, w.Ops) {
				t.Errorf("%s[%d] = %+v, per-call reference %+v", what("IA.Items"), i, g, w)
			}
		}
	}
	if drilled == 0 {
		t.Fatal("no scenario ran the drill-down; the comparison was vacuous")
	}
}

// TestSeededPartitionsMatchPerCall: CO and CR called directly on an
// un-seeded Input (per-call filtering) agree with the pipeline run, whose
// seeded input carries the partitions — and a plan other than the seeded one
// falls back to filtering rather than reusing them.
func TestSeededPartitionsMatchPerCall(t *testing.T) {
	sc, err := experiments.Build(experiments.S1SANMisconfig, 701)
	if err != nil {
		t.Fatal(err)
	}
	res, err := diag.Diagnose(sc.Input)
	if err != nil {
		t.Fatal(err)
	}
	co, err := diag.CorrelatedOperators(sc.Input, res.APG.Plan)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, "per-call CO", co.Scores, res.CO.Scores)
	cr, err := diag.CorrelatedRecordCounts(sc.Input, res.APG.Plan, co)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, "per-call CR", cr.Scores, res.CR.Scores)

	// A different plan shares no runs with the history: CO has nothing to
	// fit and must say so, not score the seeded plan's runs.
	other := plan.BuildQ6()
	seeded, err := diag.Seed(sc.Input)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := diag.CorrelatedOperators(seeded, other); err == nil {
		t.Fatal("CO on a plan no run executed should fail for lack of samples")
	}
}
