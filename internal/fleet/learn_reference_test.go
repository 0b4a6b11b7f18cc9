package fleet

// This file keeps a long-way reference of the learning loop: a miner
// that re-counts every incident's facts and re-scans every healthy base
// on each proposal, a validator that re-sorts its corpus on each replay,
// and a lifecycle that re-proposes and re-validates on every step, with
// or without new evidence. TestLearnerMatchesLongWayReference drives it
// and the learner through the same random calls and demands identical
// stats and databases after each one.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"diads/internal/diag"
	"diads/internal/service"
	"diads/internal/symptoms"
)

const refScoreThreshold = 0.8

// refMiner keeps every incident and healthy base and folds them again
// on each Propose.
type refMiner struct {
	incidents  []symptoms.Incident
	background []*symptoms.FactBase
}

func (m *refMiner) AddIncident(inc symptoms.Incident)   { m.incidents = append(m.incidents, inc) }
func (m *refMiner) AddBackground(fb *symptoms.FactBase) { m.background = append(m.background, fb) }

func (m *refMiner) Propose(minIncidents int) []symptoms.CandidateEntry {
	byKind := make(map[string][]symptoms.Incident)
	for _, inc := range m.incidents {
		byKind[inc.CauseKind] = append(byKind[inc.CauseKind], inc)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)

	var out []symptoms.CandidateEntry
	for _, kind := range kinds {
		class := byKind[kind]
		if len(class) < minIncidents {
			continue
		}
		discriminative := m.filterBackground(m.commonFacts(class))
		if len(discriminative) == 0 {
			continue
		}
		cand := symptoms.CandidateEntry{
			CauseKind: kind + symptoms.MinedSuffix,
			Support:   len(class),
			Incidents: len(class),
		}
		var exprs []symptoms.Expr
		for _, name := range discriminative {
			expr, err := symptoms.ParseExpr(fmt.Sprintf("ge(%s, %g)", name, refScoreThreshold))
			if err != nil {
				cand.Skipped++
				continue
			}
			exprs = append(exprs, expr)
		}
		if len(exprs) == 0 {
			continue
		}
		weight := 100.0 / float64(len(exprs))
		for _, expr := range exprs {
			cand.Conditions = append(cand.Conditions, symptoms.Condition{Weight: weight, Expr: expr})
		}
		out = append(out, cand)
	}
	return out
}

func (m *refMiner) commonFacts(class []symptoms.Incident) []string {
	counts := make(map[string]int)
	for _, inc := range class {
		for _, f := range inc.Facts.All() {
			if f.Score >= refScoreThreshold {
				counts[f.Name]++
			}
		}
	}
	var out []string
	for name, n := range counts {
		if n == len(class) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func (m *refMiner) filterBackground(names []string) []string {
	var out []string
	for _, name := range names {
		inBackground := false
		for _, fb := range m.background {
			if fb.MaxScore(name) >= refScoreThreshold {
				inBackground = true
				break
			}
		}
		if !inBackground {
			out = append(out, name)
		}
	}
	return out
}

// refValidator keeps its corpus in a map and sorts the fingerprints on
// each Validate.
type refValidator struct {
	healthy map[string]*symptoms.FactBase
	holdout map[string][]symptoms.Incident
}

func (v *refValidator) AddHealthy(fb *symptoms.FactBase) bool {
	if fb == nil {
		return false
	}
	fp := fb.Fingerprint()
	if _, ok := v.healthy[fp]; ok {
		return false
	}
	v.healthy[fp] = fb
	return true
}

func (v *refValidator) AddHoldout(inc symptoms.Incident) {
	v.holdout[inc.CauseKind] = append(v.holdout[inc.CauseKind], inc)
}

func (v *refValidator) bases() []*symptoms.FactBase {
	fps := make([]string, 0, len(v.healthy))
	for fp := range v.healthy {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	out := make([]*symptoms.FactBase, len(fps))
	for i, fp := range fps {
		out[i] = v.healthy[fp]
	}
	return out
}

func refScoreOn(conds []symptoms.Condition, fb *symptoms.FactBase) float64 {
	var score float64
	for _, c := range conds {
		if c.Expr.Eval(fb, nil) {
			score += c.Weight
		}
	}
	return score
}

func (v *refValidator) Validate(c symptoms.CandidateEntry) symptoms.Validation {
	out := symptoms.Validation{Kind: c.CauseKind, Healthy: len(v.healthy)}
	holdout := v.holdout[symptoms.BaseKind(c.CauseKind)]
	out.Holdout = len(holdout)
	for _, cond := range c.Conditions {
		out.Conditions = append(out.Conditions, symptoms.ConditionCheck{
			Expr: cond.Expr.String(), Weight: cond.Weight,
		})
	}
	if out.Healthy < symptoms.MinHealthy {
		out.Verdict = symptoms.VerdictDefer
		out.Reason = fmt.Sprintf("awaiting healthy corpus (%d/%d fact bases)", out.Healthy, symptoms.MinHealthy)
		return out
	}
	if out.Holdout < symptoms.MinHoldout {
		out.Verdict = symptoms.VerdictDefer
		out.Reason = fmt.Sprintf("awaiting held-out incidents (%d/%d)", out.Holdout, symptoms.MinHoldout)
		return out
	}
	for _, fb := range v.bases() {
		if symptoms.Categorize(refScoreOn(c.Conditions, fb)) == symptoms.High {
			out.FalsePositives++
		}
		for i, cond := range c.Conditions {
			if cond.Expr.Eval(fb, nil) {
				out.Conditions[i].HealthyHits++
			}
		}
	}
	for _, inc := range holdout {
		if symptoms.Categorize(refScoreOn(c.Conditions, inc.Facts)) == symptoms.High {
			out.HoldoutHigh++
		}
		for i, cond := range c.Conditions {
			if !cond.Expr.Eval(inc.Facts, nil) {
				out.Conditions[i].HoldoutMisses++
			}
		}
	}
	var background []string
	for _, cc := range out.Conditions {
		if cc.HealthyHits > 0 {
			background = append(background, cc.Expr)
		}
	}
	switch {
	case out.FalsePositives > 0:
		out.Verdict = symptoms.VerdictReject
		out.Reason = fmt.Sprintf("healthy-corpus false positives: %d/%d", out.FalsePositives, out.Healthy)
	case len(background) > 0:
		out.Verdict = symptoms.VerdictReject
		out.Reason = fmt.Sprintf("conditions hold during healthy periods: %s", strings.Join(background, ", "))
	case out.HoldoutHigh < out.Holdout:
		out.Verdict = symptoms.VerdictReject
		out.Reason = fmt.Sprintf("held-out incident replay: %d/%d below high confidence",
			out.Holdout-out.HoldoutHigh, out.Holdout)
	default:
		out.Verdict = symptoms.VerdictPass
	}
	return out
}

// refLearner is the candidate lifecycle the long way: every step
// re-proposes and re-validates, whatever arrived since the last one.
type refLearner struct {
	cfg          LearnConfig
	symdb        *symptoms.DB
	miner        refMiner
	validator    refValidator
	preinstalled map[string]bool
	fed          map[incidentID]bool
	kindSeen     map[string]int
	sources      map[string]map[string]bool
	authors      map[string]map[string]bool
	pending      map[string]*candidate
	pendingOrder []string
	rejected     map[string]bool
	rejectedList []RejectedCandidate
	installed    []InstalledEntry

	confirmed, heldOut int
}

func newRefLearner(cfg LearnConfig, symdb *symptoms.DB) *refLearner {
	l := &refLearner{
		cfg:          cfg,
		symdb:        symdb,
		preinstalled: make(map[string]bool),
		fed:          make(map[incidentID]bool),
		kindSeen:     make(map[string]int),
		sources:      make(map[string]map[string]bool),
		authors:      make(map[string]map[string]bool),
		pending:      make(map[string]*candidate),
		rejected:     make(map[string]bool),
		validator: refValidator{
			healthy: make(map[string]*symptoms.FactBase),
			holdout: make(map[string][]symptoms.Incident),
		},
	}
	for _, e := range symdb.Entries() {
		if symptoms.IsMined(e.Kind) {
			l.preinstalled[e.Kind] = true
		}
	}
	return l
}

func (l *refLearner) addHealthy(fb *symptoms.FactBase) {
	if l.validator.AddHealthy(fb) {
		l.miner.AddBackground(fb)
	}
}

func (l *refLearner) observe(incs []service.Incident) {
	for _, inc := range incs {
		if inc.Kind == symptoms.CausePlanRegression || symptoms.IsMined(inc.Kind) {
			continue
		}
		if inc.Confidence < confirmConfidence || inc.Events < confirmEvents {
			continue
		}
		if inc.Result == nil || inc.Result.Facts == nil {
			continue
		}
		id := incidentID{inc.Instance, inc.Query, inc.Kind, inc.Subject}
		if l.fed[id] {
			continue
		}
		l.fed[id] = true
		l.kindSeen[inc.Kind]++
		mined := symptoms.Incident{Facts: inc.Result.Facts, CauseKind: inc.Kind, Subject: inc.Subject}
		if l.kindSeen[inc.Kind]%holdoutEvery == 0 {
			l.heldOut++
			l.validator.AddHoldout(mined)
			continue
		}
		l.confirmed++
		l.miner.AddIncident(mined)
		kind := inc.Kind + symptoms.MinedSuffix
		if l.sources[kind] == nil {
			l.sources[kind] = make(map[string]bool)
		}
		l.sources[kind][inc.Instance] = true
	}
}

func (l *refLearner) step() {
	for _, cand := range l.miner.Propose(minIncidents) {
		kind := cand.CauseKind
		if l.preinstalled[kind] || l.authors[kind] != nil || l.rejected[kind] {
			continue
		}
		c := l.pending[kind]
		if c == nil {
			c = &candidate{}
			l.pending[kind] = c
			l.pendingOrder = append(l.pendingOrder, kind)
		}
		c.cand = cand
	}
	for _, kind := range l.pendingOrder {
		c := l.pending[kind]
		if c == nil {
			continue
		}
		c.val = l.validator.Validate(c.cand)
		switch c.val.Verdict {
		case symptoms.VerdictReject:
			l.reject(kind, c.val.Reason, c.val)
		case symptoms.VerdictPass:
			if l.cfg.Review == ReviewOperator {
				if l.cfg.Reviewer == nil {
					continue
				}
				if !l.cfg.Reviewer(c.cand, c.val) {
					l.reject(kind, "operator rejected", c.val)
					continue
				}
			}
			l.install(kind, c)
		}
	}
}

func (l *refLearner) resolve(kind string, accept bool) error {
	c := l.pending[kind]
	if c == nil {
		if l.rejected[kind] {
			return fmt.Errorf("fleet: candidate %q already rejected", kind)
		}
		for _, ie := range l.installed {
			if ie.Kind == kind {
				return fmt.Errorf("fleet: candidate %q already installed", kind)
			}
		}
		return fmt.Errorf("fleet: no pending candidate %q", kind)
	}
	if !accept {
		l.reject(kind, "operator rejected", c.val)
		return nil
	}
	if c.val.Verdict != symptoms.VerdictPass {
		return fmt.Errorf("fleet: candidate %q not validated (%s)", kind, c.state())
	}
	l.install(kind, c)
	return nil
}

func (l *refLearner) reject(kind, reason string, val symptoms.Validation) {
	delete(l.pending, kind)
	l.rejected[kind] = true
	l.rejectedList = append(l.rejectedList, RejectedCandidate{Kind: kind, Reason: reason, Validation: val})
}

func (l *refLearner) install(kind string, c *candidate) {
	entry := c.cand.Entry()
	if err := l.symdb.Add(entry); err != nil {
		l.reject(kind, "install: "+err.Error(), c.val)
		return
	}
	authors := make(map[string]bool, len(l.sources[kind]))
	sorted := make([]string, 0, len(l.sources[kind]))
	for inst := range l.sources[kind] {
		authors[inst] = true
		sorted = append(sorted, inst)
	}
	sort.Strings(sorted)
	l.authors[kind] = authors
	l.installed = append(l.installed, InstalledEntry{Kind: kind, Sources: sorted, Entry: entry, Validation: c.val})
	delete(l.pending, kind)
}

func (l *refLearner) stats() LearnStats {
	out := LearnStats{Confirmed: l.confirmed, HeldOut: l.heldOut, Healthy: len(l.validator.healthy)}
	out.Installed = append(out.Installed, l.installed...)
	for _, kind := range l.pendingOrder {
		c := l.pending[kind]
		if c == nil {
			continue
		}
		out.Pending = append(out.Pending, PendingCandidate{
			Kind: kind, State: c.state(), Support: c.cand.Support, Incidents: c.cand.Incidents,
			Rendered: c.cand.Render(), Validation: c.val,
		})
	}
	out.Rejected = append(out.Rejected, l.rejectedList...)
	return out
}

// refFactNames is the random tests' fact vocabulary: plain names, names
// a "*" makes a pattern (a whole-segment wildcard, and one inside a
// segment, which is literal), and names with condition-DSL delimiters
// the miner must skip.
var refFactNames = []string{
	"metric-anomaly:vol-V1:writeTime",
	"metric-anomaly:vol-V2:readTime",
	"cos-leaf-frac:vol-V1",
	"pool-load-increase:pool-P1",
	"ambient:cpu",
	"ambient:*",
	"lock:*:db",
	"lock:row:db",
	"a*b:c",
	"evil)name",
	"trailing, 0.9) or(x",
}

// refFacts draws a fact base: the signature names at a high score, and
// each other name at a high score with probability p, at a low one with
// probability p (NaN among them), and absent otherwise.
func refFacts(rng *rand.Rand, p float64, signature ...string) *symptoms.FactBase {
	fb := symptoms.NewFactBase()
	for _, name := range refFactNames {
		switch x := rng.Float64(); {
		case x < p:
			fb.Add(name, []float64{0.8, 0.85, 0.95}[rng.Intn(3)])
		case x < 2*p:
			fb.Add(name, []float64{0.5, math.NaN()}[rng.Intn(2)])
		}
	}
	for _, name := range signature {
		fb.Add(name, 0.95)
	}
	return fb
}

// TestLearnerMatchesLongWayReference drives random sequences of
// observe, addHealthy, step, resolve and a refused install through the
// learner and the long-way reference, under every review policy, with a
// preinstalled kind, and demands after every call that stats (rendered
// pending candidates and every validation included) and the rendered
// databases match exactly, and that a second step changes nothing.
func TestLearnerMatchesLongWayReference(t *testing.T) {
	kinds := []string{"san-contention", "lock-storm", "cpu-burn", "pre"}
	// Each kind's incidents carry its signature names, so classes have
	// common facts to mine; the glob and delimiter names are in some.
	signatures := [][]string{
		{"metric-anomaly:vol-V1:writeTime", "cos-leaf-frac:vol-V1"},
		{"lock:*:db", "evil)name"},
		{"ambient:*", "a*b:c", "metric-anomaly:vol-V2:readTime"},
		{"ambient:cpu"},
	}
	preEntry := symptoms.Entry{
		Kind: "pre" + symptoms.MinedSuffix, Scope: symptoms.ScopeGlobal,
		Conditions: []symptoms.Condition{{Weight: 100, Expr: symptoms.MustParseExpr("ge(ambient:cpu, 0.8)")}},
	}
	reviewer := func(c symptoms.CandidateEntry, _ symptoms.Validation) bool { return len(c.Conditions)%2 == 1 }
	policies := []struct {
		name     string
		review   ReviewPolicy
		reviewer func(symptoms.CandidateEntry, symptoms.Validation) bool
	}{
		{"auto", ReviewAutoAccept, nil},
		{"operator-manual", ReviewOperator, nil},
		{"operator-scripted", ReviewOperator, reviewer},
	}
	for _, pol := range policies {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := LearnConfig{Review: pol.review, Reviewer: pol.reviewer}
			symdb, refdb := symptoms.NewDB(), symptoms.NewDB()
			if seed%2 == 0 {
				for _, db := range []*symptoms.DB{symdb, refdb} {
					if err := db.Add(preEntry); err != nil {
						t.Fatal(err)
					}
				}
			}
			l, ref := newLearner(cfg, symdb), newRefLearner(cfg, refdb)
			var healthy []*symptoms.FactBase
			var seen []service.Incident

			check := func(op int, what string) {
				t.Helper()
				if got, want := l.stats(), ref.stats(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d op %d (%s): stats differ\ngot  %+v\nwant %+v", pol.name, seed, op, what, got, want)
				}
				if got, want := symdb.Render(), refdb.Render(); got != want {
					t.Fatalf("%s seed %d op %d (%s): databases differ\ngot  %s\nwant %s", pol.name, seed, op, what, got, want)
				}
			}
			for op := 0; op < 60; op++ {
				switch r := rng.Intn(30); {
				case r < 12:
					var incs []service.Incident
					for n := 1 + rng.Intn(3); n > 0; n-- {
						if len(seen) > 0 && rng.Intn(4) == 0 {
							incs = append(incs, seen[rng.Intn(len(seen))])
							continue
						}
						k := rng.Intn(len(kinds))
						inc := service.Incident{
							Instance:   fmt.Sprintf("inst-%d", rng.Intn(4)),
							Query:      []string{"Q2", "Q6"}[rng.Intn(2)],
							Kind:       kinds[k],
							Subject:    []string{"vol-V1", "vol-V2"}[rng.Intn(2)],
							Confidence: []float64{70, 85, 95}[rng.Intn(3)],
							Events:     1 + rng.Intn(3),
							Result:     &diag.Result{Facts: refFacts(rng, 0.3, signatures[k]...)},
						}
						if rng.Intn(10) == 0 {
							inc.Kind = symptoms.CausePlanRegression
						}
						seen = append(seen, inc)
						incs = append(incs, inc)
					}
					l.observe(incs)
					ref.observe(incs)
					check(op, "observe")
				case r < 18:
					var fb *symptoms.FactBase
					switch {
					case len(healthy) > 0 && rng.Intn(3) == 0:
						fb = healthy[rng.Intn(len(healthy))] // the same base again
					case len(healthy) > 0 && rng.Intn(3) == 0:
						fb = symptoms.NewFactBase() // an identical copy
						for _, f := range healthy[rng.Intn(len(healthy))].All() {
							fb.Add(f.Name, f.Score)
						}
					default:
						fb = refFacts(rng, 0.1)
					}
					healthy = append(healthy, fb)
					l.addHealthy(fb)
					ref.addHealthy(fb)
					check(op, "addHealthy")
				case r < 25:
					l.step()
					ref.step()
					check(op, "step")
					before := l.stats()
					l.step()
					ref.step()
					if after := l.stats(); !reflect.DeepEqual(before, after) {
						t.Fatalf("%s seed %d op %d: a second step changed stats\nbefore %+v\nafter  %+v", pol.name, seed, op, before, after)
					}
					check(op, "second step")
				case r < 29:
					kind := kinds[rng.Intn(len(kinds))] + symptoms.MinedSuffix
					accept := rng.Intn(2) == 0
					gotErr, wantErr := l.resolve(kind, accept), ref.resolve(kind, accept)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s seed %d op %d: resolve(%s, %v) = %v, reference %v", pol.name, seed, op, kind, accept, gotErr, wantErr)
					}
					check(op, "resolve")
				default:
					// A candidate the database refuses: weights that do
					// not sum to 100.
					kind := fmt.Sprintf("broken-%d", op) + symptoms.MinedSuffix
					broken := symptoms.CandidateEntry{CauseKind: kind, Conditions: []symptoms.Condition{
						{Weight: 50, Expr: symptoms.MustParseExpr("ge(x, 0.8)")},
					}}
					l.install(kind, &candidate{cand: broken})
					ref.install(kind, &candidate{cand: broken})
					check(op, "install error")
				}
			}
		}
	}
}
