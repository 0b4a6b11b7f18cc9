package diag

import (
	"cmp"
	"slices"
	"sort"

	"diads/internal/apg"
	"diads/internal/exec"
	"diads/internal/plan"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/topology"
)

// ImpactItem ties one root-cause hypothesis to the share of the query
// slowdown it explains.
type ImpactItem struct {
	Cause symptoms.CauseInstance
	// Score is the percentage of the extra plan running time explained by
	// the cause (the paper's impact score; 99.8% in scenario 1).
	Score float64
	// Ops lists the operators attributed to the cause.
	Ops []int
}

// IAResult is Module IA's output, sorted by confidence then impact.
type IAResult struct {
	Items []ImpactItem
	// ExtraPlanTime is the mean slowdown being explained.
	ExtraPlanTime simtime.Duration
}

// ImpactAnalysis implements Module IA using the paper's "inverse
// dependency analysis": for each root cause R it finds the components
// comp(R) affected by R, then the operators op(R) whose performance
// depends on those components, and scores R by the percentage of the
// plan's extra running time contributed by op(R)'s extra running time
// (Section 4.1).
//
// Only each operator's own (exclusive) time enters the sums, so ancestors
// do not double-count their children; lock-wait time is attributed to
// lock causes and excluded from volume causes, which is how a locking
// problem with spurious volume symptoms gets separated (scenario 5).
func ImpactAnalysis(in *Input, g *apg.APG, co *COResult, causes []symptoms.CauseInstance) (*IAResult, error) {
	sat, unsat := in.runsOnPlan(g.Plan)
	res := &IAResult{}
	extraPlan := meanDuration(unsat) - meanDuration(sat)
	res.ExtraPlanTime = extraPlan
	if extraPlan <= 0 {
		extraPlan = simtime.Duration(1e-9) // nothing to explain; scores ~0
	}

	own := ownTimeDeltas(g.Plan, sat, unsat)
	lockDelta := lockWaitDeltas(g.Plan, sat, unsat)

	n := 0
	for _, cause := range causes {
		if cause.Category != symptoms.Low {
			n++
		}
	}
	if n > 0 {
		res.Items = make([]ImpactItem, 0, n)
	}
	for _, cause := range causes {
		if cause.Category == symptoms.Low {
			continue
		}
		ops := operatorsFor(in, g, co, cause)
		var extra float64
		for _, id := range ops {
			switch cause.Kind {
			case symptoms.CauseLockContention:
				extra += opDelta(lockDelta, id)
			case symptoms.CauseSANMisconfig, symptoms.CauseExternalLoad,
				symptoms.CauseRAIDRebuild, symptoms.CauseDiskFailure:
				extra += opDelta(own, id) - opDelta(lockDelta, id)
			default:
				extra += opDelta(own, id)
			}
		}
		score := 100 * extra / float64(extraPlan)
		if score < 0 {
			score = 0
		}
		if score > 100 {
			score = 100
		}
		res.Items = append(res.Items, ImpactItem{Cause: cause, Score: score, Ops: ops})
	}
	slices.SortStableFunc(res.Items, func(a, b ImpactItem) int {
		return cmp.Or(cmp.Compare(b.Cause.Confidence, a.Cause.Confidence), cmp.Compare(b.Score, a.Score))
	})
	return res, nil
}

// operatorsFor computes op(R): the COS leaf operators whose dependency
// paths touch the components affected by the cause. CPU saturation
// affects every correlated operator.
func operatorsFor(in *Input, g *apg.APG, co *COResult, cause symptoms.CauseInstance) []int {
	var out []int
	switch cause.Kind {
	case symptoms.CauseSANMisconfig, symptoms.CauseExternalLoad:
		vol := topology.ID(cause.Subject)
		// The cause's subject volume affects the leaves reading any
		// volume sharing its disks (including itself).
		sharing := in.Cfg.AppendSharingVolumes(make([]topology.ID, 0, 8), vol)
		for _, leaf := range g.Leaves() {
			if (leaf.Volume == vol || slices.Contains(sharing, leaf.Volume)) && co.InCOS(leaf.ID) {
				out = append(out, leaf.ID)
			}
		}
	case symptoms.CauseRAIDRebuild, symptoms.CauseDiskFailure:
		pool := topology.ID(cause.Subject)
		for _, leaf := range g.Leaves() {
			if in.Cfg.PoolOf(leaf.Volume) == pool && co.InCOS(leaf.ID) {
				out = append(out, leaf.ID)
			}
		}
	case symptoms.CauseDataProperty, symptoms.CauseLockContention:
		for _, leaf := range g.Leaves() {
			if leaf.Table == cause.Subject && co.InCOS(leaf.ID) {
				out = append(out, leaf.ID)
			}
		}
	case symptoms.CauseCPUSaturation:
		out = append(out, co.COS...)
	default:
		// Unknown causes claim the leaves in the COS.
		for _, leaf := range g.Leaves() {
			if co.InCOS(leaf.ID) {
				out = append(out, leaf.ID)
			}
		}
	}
	sort.Ints(out)
	return out
}

// opDelta reads an operator's entry of a per-operator delta slice: 0 for
// an ID the plan does not have (an edited COS may name one).
func opDelta(deltas []float64, id int) float64 {
	if id < 0 || id >= len(deltas) {
		return 0
	}
	return deltas[id]
}

// ownTimeDeltas computes, per operator ID, the change in mean own
// (exclusive) running time between satisfactory and unsatisfactory runs.
func ownTimeDeltas(p *plan.Plan, sat, unsat []*exec.RunRecord) []float64 {
	out := make([]float64, p.NumOperators()+1)
	for _, n := range p.Nodes() {
		out[n.ID] = meanOwn(unsat, p, n.ID) - meanOwn(sat, p, n.ID)
	}
	return out
}

// meanOwn averages an operator's exclusive time: its interval minus its
// children's (and attached subplans') intervals.
func meanOwn(runs []*exec.RunRecord, p *plan.Plan, id int) float64 {
	if len(runs) == 0 {
		return 0
	}
	n, ok := p.Node(id)
	if !ok {
		return 0
	}
	var sum float64
	for _, r := range runs {
		op := r.Op(id)
		if op == nil {
			continue
		}
		own := float64(op.Stop.Sub(op.Start))
		for _, ch := range n.Children {
			if c := r.Op(ch.ID); c != nil {
				own -= float64(c.Stop.Sub(c.Start))
			}
		}
		for _, s := range n.SubPlans {
			if c := r.Op(s.ID); c != nil {
				own -= float64(c.Stop.Sub(c.Start))
			}
		}
		sum += own
	}
	return sum / float64(len(runs))
}

// lockWaitDeltas computes, per operator ID, the change in mean lock-wait
// time.
func lockWaitDeltas(p *plan.Plan, sat, unsat []*exec.RunRecord) []float64 {
	mean := func(runs []*exec.RunRecord, id int) float64 {
		if len(runs) == 0 {
			return 0
		}
		var sum float64
		for _, r := range runs {
			if op := r.Op(id); op != nil {
				sum += float64(op.LockWait)
			}
		}
		return sum / float64(len(runs))
	}
	out := make([]float64, p.NumOperators()+1)
	for _, n := range p.Nodes() {
		out[n.ID] = mean(unsat, n.ID) - mean(sat, n.ID)
	}
	return out
}

func meanDuration(runs []*exec.RunRecord) simtime.Duration {
	if len(runs) == 0 {
		return 0
	}
	var sum simtime.Duration
	for _, r := range runs {
		sum += r.Duration()
	}
	return sum / simtime.Duration(len(runs))
}
