package experiments

import (
	"fmt"
	"strings"

	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/faults"
	"diads/internal/selfheal"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
	"diads/internal/whatif"
)

// WhatIfResult is the Section 7 what-if extension study: predicted vs
// observed impact of adding a workload to each pool.
type WhatIfResult struct {
	PredictedP1 whatif.Prediction
	PredictedP2 whatif.Prediction
	// ObservedP1 is the measured slowdown factor when the P1 workload is
	// actually applied (scenario 1's fault).
	ObservedP1 float64
}

// WhatIf predicts the impact of the scenario-1 workload on each pool and
// compares the P1 prediction against the measured outcome.
func WhatIf(seed int64) (*WhatIfResult, error) {
	sc, err := Build(S1SANMisconfig, seed)
	if err != nil {
		return nil, err
	}
	sat, unsat := sc.Input.SatRuns(), sc.Input.UnsatRuns()
	if len(sat) == 0 || len(unsat) == 0 {
		return nil, fmt.Errorf("experiments: scenario 1 labels degenerate")
	}
	an := &whatif.Analyzer{
		Cfg: sc.Testbed.Cfg, SAN: sc.Testbed.SAN, Cat: sc.Testbed.Cat,
		Opt: sc.Testbed.Opt, Params: sc.Testbed.Params, Stats: sc.Testbed.Stats,
		Baseline: sat[0],
		// Evaluate storage state before the fault so predictions are
		// proactive.
		At: sat[0].Start,
	}
	// What the misconfigured workload would do on each pool. These use
	// the same IOPS as the injected fault.
	p1, err := an.AddWorkload(testbed.VolV3, 450, 120)
	if err != nil {
		return nil, err
	}
	p2, err := an.AddWorkload(testbed.VolV4, 450, 120)
	if err != nil {
		return nil, err
	}
	observed := meanDuration(unsat) / meanDuration(sat)
	return &WhatIfResult{PredictedP1: p1, PredictedP2: p2, ObservedP1: observed}, nil
}

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

// Render formats the study.
func (r *WhatIfResult) Render() string {
	var b strings.Builder
	b.WriteString("What-if analysis (Section 7 extension)\n")
	fmt.Fprintf(&b, "P1-side: %s\n", r.PredictedP1)
	fmt.Fprintf(&b, "P2-side: %s\n", r.PredictedP2)
	fmt.Fprintf(&b, "observed slowdown when the P1 workload really ran: %.2fx\n", r.ObservedP1)
	return b.String()
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
	sat, unsat := sc.Input.SatRuns(), sc.Input.UnsatRuns()
	out.HealthyMean = meanDuration(sat)
	out.BrokenMean = meanDuration(unsat)

	healed, post, err := heal(seed, subject, remedy)
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

// heal builds the continuation environment: same seed and fault,
// simulated, then the remedy applied at post, where the healed runs start.
func heal(seed int64, subject string, remedy *selfheal.Remedy) (*testbed.Testbed, simtime.Time, error) {
	post := scheduleHorizon().Add(10 * simtime.Minute)
	healed, err := newScenarioTestbed(seed)
	if err != nil {
		return nil, 0, err
	}
	if err := faults.Inject(healed, &faults.IndexDrop{At: faultOnset(), Index: subject}); err != nil {
		return nil, 0, err
	}
	if err := healed.Simulate(); err != nil {
		return nil, 0, err
	}
	return healed, post, remedy.Apply(healed, post)
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
