package diag

import (
	"sort"

	"diads/internal/exec"
	"diads/internal/kde"
	"diads/internal/plan"
)

// OperatorScore is one operator's anomaly score.
type OperatorScore struct {
	ID    int
	Type  plan.OpType
	Table string
	Score float64
}

// COResult is Module CO's output: per-operator anomaly scores and the
// correlated operator set.
type COResult struct {
	// Scores holds every analyzed operator, ordered by ID.
	Scores []OperatorScore
	// COS lists the IDs of operators whose anomaly score exceeds the
	// threshold — the correlated operator set.
	COS []int
}

// InCOS reports whether the operator is in the correlated operator set.
func (r *COResult) InCOS(id int) bool {
	for _, x := range r.COS {
		if x == id {
			return true
		}
	}
	return false
}

// ScoreOf returns the operator's anomaly score (0 if not analyzed).
func (r *COResult) ScoreOf(id int) float64 {
	for _, s := range r.Scores {
		if s.ID == id {
			return s.Score
		}
	}
	return 0
}

// CorrelatedOperators implements Module CO: it learns, with kernel
// density estimation, the distribution of each operator's running time
// across the satisfactory runs of plan P, and scores the unsatisfactory
// observations with prob(S <= u). Operators scoring above the threshold
// form the correlated operator set whose performance change best explains
// P's slowdown (Section 4.1).
//
// The root operator is excluded: its running time is the plan's total
// running time t(P), so it carries no additional signal.
func CorrelatedOperators(in *Input, p *plan.Plan) (*COResult, error) {
	sat, unsat := in.runsOnPlan(p)
	res := &COResult{}
	threshold := in.threshold()
	for _, n := range p.Nodes() {
		if n.ID == p.Root.ID {
			continue
		}
		satTimes := recordedTimes(sat, n.ID)
		unsatTimes := recordedTimes(unsat, n.ID)
		score, err := kde.AnomalyScore(satTimes, unsatTimes)
		if err != nil {
			return nil, err
		}
		res.Scores = append(res.Scores, OperatorScore{
			ID: n.ID, Type: n.Type, Table: n.Table, Score: score,
		})
		if score > threshold {
			res.COS = append(res.COS, n.ID)
		}
	}
	sort.Ints(res.COS)
	return res, nil
}

// recordedTimes extracts one operator's recorded running times.
func recordedTimes(runs []*exec.RunRecord, opID int) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if op := r.Op(opID); op != nil {
			out = append(out, float64(op.Recorded))
		}
	}
	return out
}
