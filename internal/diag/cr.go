package diag

import (
	"diads/internal/exec"
	"diads/internal/kde"
	"diads/internal/plan"
)

// CRResult is Module CR's output.
type CRResult struct {
	// Scores holds record-count anomaly scores for the operators in the
	// COS, ordered by ID.
	Scores []OperatorScore
	// CRS lists the operators whose record counts changed significantly —
	// evidence of a data-property change.
	CRS []int
	// TableScores aggregates the per-operator scores to the base tables
	// of the leaf operators involved (max score per table).
	TableScores map[string]float64
}

// CorrelatedRecordCounts implements Module CR: it checks whether the
// change in performance of the correlated operators correlates with their
// record counts; significant correlations mean the data properties
// changed between the satisfactory and unsatisfactory runs (Section 4.1).
func CorrelatedRecordCounts(in *Input, p *plan.Plan, co *COResult) (*CRResult, error) {
	sat, unsat := in.runsOnPlan(p)
	res := &CRResult{Scores: make([]OperatorScore, 0, len(co.COS)), TableScores: make(map[string]float64)}
	threshold := in.threshold()
	// Reused across operators; kde copies what it keeps.
	var satCounts, unsatCounts []float64
	for _, opID := range co.COS {
		node, ok := p.Node(opID)
		if !ok {
			continue
		}
		satCounts = actualRowCounts(satCounts[:0], sat, opID)
		unsatCounts = actualRowCounts(unsatCounts[:0], unsat, opID)
		score, err := kde.AnomalyScore(satCounts, unsatCounts)
		if err != nil {
			continue
		}
		res.Scores = append(res.Scores, OperatorScore{
			ID: opID, Type: node.Type, Table: node.Table, Score: score,
		})
		if node.IsLeaf() && score > res.TableScores[node.Table] {
			res.TableScores[node.Table] = score
		}
	}
	res.CRS = above(res.Scores, threshold)
	return res, nil
}

// actualRowCounts appends one operator's actual record counts per run to
// dst.
func actualRowCounts(dst []float64, runs []*exec.RunRecord, opID int) []float64 {
	for _, r := range runs {
		if op := r.Op(opID); op != nil {
			dst = append(dst, op.ActRows)
		}
	}
	return dst
}
