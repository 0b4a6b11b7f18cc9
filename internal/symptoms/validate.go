package symptoms

import (
	"fmt"
	"slices"
	"strings"
)

// The paper's Section 7 has mined candidates "checked by an expert"
// before they join the symptoms database. Validator is the automated
// half of that check: before a candidate is installed (or even shown to
// an operator), it is replayed against a corpus of healthy-period fact
// bases — where it must never fire — and against held-out confirmed
// incidents of its cause class — where it must still score High. A
// candidate that encodes always-present facts as "discriminative"
// conditions fails the healthy replay; one that overfits the incidents
// it was mined from fails the hold-out replay. Codebook correlation
// (Yemini et al.) makes the same point: a codebook entry is only
// trustworthy when its symptoms distinguish the problem from baseline
// behavior.

// Verdict is the outcome of validating one candidate.
type Verdict string

const (
	// VerdictPass: the candidate survived both replays and is safe to
	// install (or hand to the operator for the final ack).
	VerdictPass Verdict = "pass"
	// VerdictReject: a replay failed; the reason names the evidence.
	VerdictReject Verdict = "reject"
	// VerdictDefer: the validator does not yet hold enough evidence
	// (healthy corpus or held-out incidents below the minimums); the
	// candidate stays pending and is re-validated as evidence accrues.
	VerdictDefer Verdict = "defer"
)

// ConditionCheck is one condition's replay record — the per-condition
// reason trail of a Validation.
type ConditionCheck struct {
	Expr   string
	Weight float64
	// HealthyHits counts healthy-period fact bases on which the
	// condition held. Any hit means the condition is not discriminative:
	// it asserts something that is also true when nothing is wrong.
	HealthyHits int
	// HoldoutMisses counts held-out incidents of the candidate's class
	// on which the condition did NOT hold — evidence of overfitting to
	// the mined incidents.
	HoldoutMisses int
}

// Validation is the typed report of one candidate's validation.
type Validation struct {
	Kind    string
	Verdict Verdict
	// Reason explains a reject or defer; empty on pass.
	Reason string
	// Healthy is the corpus size replayed; FalsePositives counts the
	// healthy fact bases on which the whole entry scored High — the
	// false-positive rate that must be 0.
	Healthy        int
	FalsePositives int
	// Holdout is the number of held-out incidents replayed; HoldoutHigh
	// how many still scored High.
	Holdout     int
	HoldoutHigh int
	// Conditions is the per-condition replay record, in entry order.
	Conditions []ConditionCheck
}

// Validate defers a candidate until it has this much evidence.
const (
	// MinHealthy is the healthy-corpus size required before a candidate
	// can be validated at all: with no picture of normal operation,
	// "discriminative" is unfalsifiable.
	MinHealthy = 1
	// MinHoldout is the number of held-out confirmed incidents of the
	// candidate's class required before validation.
	MinHoldout = 1
)

// Validator replays candidate entries against evidence of normal
// operation. It is not safe for concurrent use; the fleet layer drives
// it from its epoch fold, under the exchange's mutex.
type Validator struct {
	// healthy is the corpus sorted by fingerprint, so every replay walks
	// it deterministically, and deduplicated by it so the same quiet
	// period captured twice carries no extra weight.
	healthy []healthyBase
	// holdout maps a base (unmined) cause kind to its held-out
	// confirmed incidents.
	holdout map[string][]Incident
}

// healthyBase is one corpus member and its fingerprint.
type healthyBase struct {
	fp string
	fb *FactBase
}

// AddHealthy records a healthy-period fact base, reporting whether it
// was new (false when an identical base was already in the corpus).
func (v *Validator) AddHealthy(fb *FactBase) bool {
	if fb == nil {
		return false
	}
	fp := fb.Fingerprint()
	i, found := slices.BinarySearchFunc(v.healthy, fp, func(h healthyBase, fp string) int {
		return strings.Compare(h.fp, fp)
	})
	if found {
		return false
	}
	v.healthy = slices.Insert(v.healthy, i, healthyBase{fp, fb})
	return true
}

// AddHoldout records a confirmed incident withheld from mining, to be
// replayed against candidates of its cause kind.
func (v *Validator) AddHoldout(inc Incident) {
	if v.holdout == nil {
		v.holdout = make(map[string][]Incident)
	}
	v.holdout[inc.CauseKind] = append(v.holdout[inc.CauseKind], inc)
}

// HealthyCount returns the corpus size.
func (v *Validator) HealthyCount() int { return len(v.healthy) }

// scoreOn evaluates the candidate's conditions against a fact base
// (mined conditions reference concrete fact names, so no bindings).
func scoreOn(conds []Condition, fb *FactBase) float64 {
	var score float64
	for _, c := range conds {
		if c.Expr.Eval(fb, nil) {
			score += c.Weight
		}
	}
	return score
}

// Validate replays the candidate and returns the report. The verdict is
// deterministic in the validator's contents: every count is an
// order-independent aggregate and the corpus is walked in fingerprint
// order.
func (v *Validator) Validate(c CandidateEntry) Validation {
	out := Validation{
		Kind:    c.CauseKind,
		Healthy: len(v.healthy),
	}
	holdout := v.holdout[BaseKind(c.CauseKind)]
	out.Holdout = len(holdout)
	for _, cond := range c.Conditions {
		out.Conditions = append(out.Conditions, ConditionCheck{
			Expr: cond.Expr.String(), Weight: cond.Weight,
		})
	}

	if out.Healthy < MinHealthy {
		out.Verdict = VerdictDefer
		out.Reason = fmt.Sprintf("awaiting healthy corpus (%d/%d fact bases)",
			out.Healthy, MinHealthy)
		return out
	}
	if out.Holdout < MinHoldout {
		out.Verdict = VerdictDefer
		out.Reason = fmt.Sprintf("awaiting held-out incidents (%d/%d)",
			out.Holdout, MinHoldout)
		return out
	}

	// Healthy replay: the entry must never reach High, and no single
	// condition may hold — a condition true during normal operation is
	// background, not a symptom.
	for _, h := range v.healthy {
		if Categorize(scoreOn(c.Conditions, h.fb)) == High {
			out.FalsePositives++
		}
		for i, cond := range c.Conditions {
			if cond.Expr.Eval(h.fb, nil) {
				out.Conditions[i].HealthyHits++
			}
		}
	}
	// Hold-out replay: the entry must still score High on confirmed
	// incidents it was not mined from.
	for _, inc := range holdout {
		if Categorize(scoreOn(c.Conditions, inc.Facts)) == High {
			out.HoldoutHigh++
		}
		for i, cond := range c.Conditions {
			if !cond.Expr.Eval(inc.Facts, nil) {
				out.Conditions[i].HoldoutMisses++
			}
		}
	}

	if out.FalsePositives > 0 {
		out.Verdict = VerdictReject
		out.Reason = fmt.Sprintf("healthy-corpus false positives: %d/%d", out.FalsePositives, out.Healthy)
		return out
	}
	if names := out.backgroundConditions(); len(names) > 0 {
		out.Verdict = VerdictReject
		out.Reason = fmt.Sprintf("conditions hold during healthy periods: %s",
			strings.Join(names, ", "))
		return out
	}
	if out.HoldoutHigh < out.Holdout {
		out.Verdict = VerdictReject
		out.Reason = fmt.Sprintf("held-out incident replay: %d/%d below high confidence",
			out.Holdout-out.HoldoutHigh, out.Holdout)
		return out
	}
	out.Verdict = VerdictPass
	return out
}

// backgroundConditions lists the conditions that held on at least one
// healthy fact base, in entry order.
func (v Validation) backgroundConditions() []string {
	var out []string
	for _, c := range v.Conditions {
		if c.HealthyHits > 0 {
			out = append(out, c.Expr)
		}
	}
	return out
}
