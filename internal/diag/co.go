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
	res := &COResult{Scores: make([]OperatorScore, 0, len(p.Nodes())-1)}
	threshold := in.threshold()
	// Reused across operators; kde copies what it keeps.
	satTimes := make([]float64, 0, len(sat))
	unsatTimes := make([]float64, 0, len(unsat))
	for _, n := range p.Nodes() {
		if n.ID == p.Root.ID {
			continue
		}
		satTimes = recordedTimes(satTimes[:0], sat, n.ID)
		unsatTimes = recordedTimes(unsatTimes[:0], unsat, n.ID)
		score, err := kde.AnomalyScore(satTimes, unsatTimes)
		if err != nil {
			return nil, err
		}
		res.Scores = append(res.Scores, OperatorScore{
			ID: n.ID, Type: n.Type, Table: n.Table, Score: score,
		})
	}
	res.COS = above(res.Scores, threshold)
	return res, nil
}

// above returns the IDs of the operators scoring above the threshold,
// sorted, in a slice of exactly their number (nil for none).
func above(scores []OperatorScore, threshold float64) []int {
	n := 0
	for _, s := range scores {
		if s.Score > threshold {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	ids := make([]int, 0, n)
	for _, s := range scores {
		if s.Score > threshold {
			ids = append(ids, s.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

// recordedTimes appends one operator's recorded running times to dst.
func recordedTimes(dst []float64, runs []*exec.RunRecord, opID int) []float64 {
	for _, r := range runs {
		if op := r.Op(opID); op != nil {
			dst = append(dst, float64(op.Recorded))
		}
	}
	return dst
}
