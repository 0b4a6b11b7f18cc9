package experiments

import (
	"fmt"
	"strings"

	"diads/internal/diag"
	"diads/internal/symptoms"
)

// AblationResult measures what each workflow stage contributes on the
// noisy scenario-1 variant: how many false-positive hypotheses survive
// with and without dependency-analysis pruning, symptoms-database
// evidence weighting, and impact analysis.
type AblationResult struct {
	// FullHighCauses is the number of high-confidence causes with the
	// complete workflow (ideally 1: the true cause).
	FullHighCauses int
	// TopIsCorrect reports whether the full workflow's diagnosis is
	// correct (Scenario.Correct).
	TopIsCorrect bool
	// NoDAHighMetrics counts component metrics that look anomalous
	// without dependency-path pruning (every monitored component scored).
	NoDAHighMetrics int
	// WithDAHighMetrics counts the CCS size with pruning.
	WithDAHighMetrics int
	// ThresholdSweep maps the CO threshold to the COS size, showing how
	// the paper's 0.8 balances sensitivity and noise.
	ThresholdSweep map[float64]int
}

// Ablations runs the workflow variants on scenario 1 with the V2 burst.
func Ablations(seed int64) (*AblationResult, error) {
	sc, err := buildScenario1WithV2Burst(seed)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{ThresholdSweep: make(map[float64]int)}

	res, err := diag.Diagnose(sc.Input)
	if err != nil {
		return nil, err
	}
	for _, c := range res.Causes {
		if c.Category == symptoms.High {
			out.FullHighCauses++
		}
	}
	out.TopIsCorrect = sc.Correct(res)
	out.WithDAHighMetrics = len(res.DA.CCS)

	// Without DA's dependency-path restriction: score every component in
	// the store against the run windows.
	threshold := sc.Input.Threshold0()
	for _, comp := range sc.Input.Store.Components() {
		for _, m := range sc.Input.Store.MetricsFor(comp) {
			if s, err := diag.ProbeMetricScore(sc.Input, comp, m); err == nil && s > threshold {
				out.NoDAHighMetrics++
			}
		}
	}

	// CO threshold sweep.
	for _, th := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95} {
		sc2, err := buildScenario1WithV2Burst(seed)
		if err != nil {
			return nil, err
		}
		sc2.Input.Threshold = th
		w, err := diag.NewWorkflow(sc2.Input)
		if err != nil {
			return nil, err
		}
		if err := w.RunPD(); err != nil {
			return nil, err
		}
		if err := w.RunCO(); err != nil {
			return nil, err
		}
		out.ThresholdSweep[th] = len(w.Res.CO.COS)
	}
	return out, nil
}

// Render formats the ablation study.
func (r *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablations (design-choice checks)\n")
	fmt.Fprintf(&b, "full workflow: %d high-confidence cause(s), top correct=%v\n",
		r.FullHighCauses, r.TopIsCorrect)
	fmt.Fprintf(&b, "anomalous metrics without DA pruning: %d; with pruning (CCS): %d\n",
		r.NoDAHighMetrics, r.WithDAHighMetrics)
	b.WriteString("CO threshold sweep (threshold -> COS size):\n")
	for _, th := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95} {
		fmt.Fprintf(&b, "  %.2f -> %d operators\n", th, r.ThresholdSweep[th])
	}
	return b.String()
}
