package diag

import (
	"fmt"

	"diads/internal/exec"
	"diads/internal/symptoms"
)

// CostModelImpact is the paper's second Module IA implementation: it
// "leverages the plan cost models used by database query optimizers".
// For causes expressible as an optimizer-input change (data-property
// growth, configuration changes), it predicts the slowdown factor from
// plan costs and compares it with the observed factor — an independent
// check on the inverse-dependency result.
type CostModelImpact struct {
	Cause symptoms.CauseInstance
	// PredictedFactor is the cost-model slowdown prediction.
	PredictedFactor float64
	// ObservedFactor is the measured mean-duration ratio.
	ObservedFactor float64
	// Explains reports whether the cost model directionally confirms the
	// cause: it predicts a material regression (> 5%) whenever one was
	// observed. Plan-cost units are abstract page fetches, not
	// wall-clock seconds, so magnitudes are indicative only — cache
	// effects in particular make real slowdowns larger than cost deltas.
	Explains bool
}

// String implements fmt.Stringer.
func (c CostModelImpact) String() string {
	return fmt.Sprintf("%s: cost model predicts %.2fx, observed %.2fx (explains=%v)",
		c.Cause, c.PredictedFactor, c.ObservedFactor, c.Explains)
}

// CostModelAnalysis runs the cost-model IA variant for the causes it can
// express. Currently data-property changes are supported: the plan is
// re-costed with the affected table's actual (grown) cardinality in place
// of the stale statistics snapshot.
func CostModelAnalysis(in *Input, res *Result) ([]CostModelImpact, error) {
	if res.APG == nil {
		return nil, fmt.Errorf("diag: cost-model analysis needs the common plan")
	}
	var buf [stackRuns]*exec.RunRecord
	sat, unsat := in.labeledRuns(buf[:])
	observed := 1.0
	if m := meanDuration(sat); m > 0 {
		observed = float64(meanDuration(unsat)) / float64(m)
	}

	var out []CostModelImpact
	for _, cause := range res.Causes {
		if cause.Kind != symptoms.CauseDataProperty || cause.Category == symptoms.Low {
			continue
		}
		table := cause.Subject
		tbl, ok := in.Cat.Table(table)
		if !ok {
			continue
		}
		base := in.Opt.CostPlan(res.APG.Plan, in.Stats, in.Params)
		grown := in.Stats.Clone()
		grown.Rows[table] = tbl.Rows // actual cardinality replaces the stale snapshot
		after := in.Opt.CostPlan(res.APG.Plan, grown, in.Params)
		predicted := after / base
		item := CostModelImpact{
			Cause:           cause,
			PredictedFactor: predicted,
			ObservedFactor:  observed,
		}
		if observed > 1 {
			item.Explains = predicted > 1.05
		}
		out = append(out, item)
	}
	if out == nil {
		return nil, nil
	}
	return out, nil
}
