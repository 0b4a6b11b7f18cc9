package experiments

import (
	"fmt"
	"strings"

	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/selfheal"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
)

// meanDuration averages run durations in seconds.
func meanDuration(runs []*exec.RunRecord) float64 {
	if len(runs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range runs {
		sum += float64(r.Duration())
	}
	return sum / float64(len(runs))
}

// SelfHealResult is the Section 7 self-healing study: diagnose a plan
// regression, plan its remedy, apply it, and verify recovery.
type SelfHealResult struct {
	Cause       string
	Remedy      string
	HealthyMean float64
	BrokenMean  float64
	HealedMean  float64
	Recovered   bool
	Verdict     string
}

// SelfHeal runs the plan-regression scenario, diagnoses it, applies the
// planned remedy (recreating the index) to a continuation environment,
// and verifies recovery by re-running the query.
func SelfHeal(seed int64) (*SelfHealResult, error) {
	sc, err := Build(SPlanRegression, seed)
	if err != nil {
		return nil, err
	}
	res, err := diag.Diagnose(sc.Input)
	if err != nil {
		return nil, err
	}
	top, ok := res.RootCause()
	if !ok || top.Cause.Kind != symptoms.CausePlanRegression {
		return nil, fmt.Errorf("experiments: plan regression not detected")
	}
	subject := top.Cause.Subject
	remedy, err := selfheal.Plan(top.Cause)
	if err != nil {
		return nil, err
	}

	out := &SelfHealResult{
		Cause:  top.Cause.Kind + "(" + subject + ")",
		Remedy: remedy.Description,
	}
	sat, unsat := sc.Input.LabeledRuns()
	out.HealthyMean = meanDuration(sat)
	out.BrokenMean = meanDuration(unsat)

	healed, post, err := heal(seed, remedy)
	if err != nil {
		return nil, err
	}
	// Re-run the query three times in the healed environment.
	var healedDur []float64
	for i := 0; i < 3; i++ {
		p, err := healed.Opt.PlanQuery("Q2", healed.Stats, healed.Params)
		if err != nil {
			return nil, err
		}
		rec, err := healed.Engine.Run(p, post.Add(simtime.Duration(i)*30*simtime.Minute),
			fmt.Sprintf("run-healed-%d", i))
		if err != nil {
			return nil, err
		}
		healedDur = append(healedDur, float64(rec.Duration()))
	}
	var sum float64
	for _, d := range healedDur {
		sum += d
	}
	out.HealedMean = sum / float64(len(healedDur))
	out.Recovered, out.Verdict = selfheal.Verify(out.HealthyMean, out.HealedMean, 0.35)
	return out, nil
}

// heal builds the continuation environment: the plan-regression
// scenario rebuilt from the same seed, then the remedy applied at post,
// where the healed runs start, ten minutes after the schedule (and with
// it the background loads) ends.
func heal(seed int64, remedy *selfheal.Remedy) (*testbed.Testbed, simtime.Time, error) {
	sc, err := Build(SPlanRegression, seed)
	if err != nil {
		return nil, 0, err
	}
	post := sc.Testbed.Loads[0].Window.End.Add(10 * simtime.Minute)
	return sc.Testbed, post, remedy.Apply(sc.Testbed, post)
}

// Render formats the study.
func (r *SelfHealResult) Render() string {
	var b strings.Builder
	b.WriteString("Self-healing (Section 7 extension)\n")
	fmt.Fprintf(&b, "cause:   %s\n", r.Cause)
	fmt.Fprintf(&b, "remedy:  %s\n", r.Remedy)
	fmt.Fprintf(&b, "mean durations: healthy=%.1fs broken=%.1fs healed=%.1fs\n",
		r.HealthyMean, r.BrokenMean, r.HealedMean)
	fmt.Fprintf(&b, "recovered=%v (%s)\n", r.Recovered, r.Verdict)
	return b.String()
}
