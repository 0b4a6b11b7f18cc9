package diag

import (
	"fmt"
	"slices"

	"diads/internal/exec"
	"diads/internal/opt"
	"diads/internal/plan"
	"diads/internal/topology"
)

// PlanChangeCause is one candidate explanation for a plan change: a
// configuration or schema event between the satisfactory and
// unsatisfactory runs, tested by replaying the optimizer with and without
// the change.
type PlanChangeCause struct {
	Event    topology.Event
	Explains bool
	Detail   string
}

// PDResult is Module PD's output.
type PDResult struct {
	// Changed reports whether the unsatisfactory runs used a different
	// plan than the satisfactory ones.
	Changed bool
	// SatSig and UnsatSig are the plan signatures of the two regimes.
	SatSig, UnsatSig string
	// Differences describes the structural changes when Changed.
	Differences []plan.Difference
	// Causes lists the candidate events and whether replaying each one
	// through the optimizer reproduces the change.
	Causes []PlanChangeCause
	// CommonPlan is the plan shared by both regimes when !Changed; the
	// remaining modules analyze it.
	CommonPlan *plan.Plan
	// SatPlan and UnsatPlan are representatives of each regime.
	SatPlan, UnsatPlan *plan.Plan
}

// PlanDiffing implements Module PD: it compares the plans used in
// satisfactory and unsatisfactory runs; if they differ, it pinpoints the
// cause of the plan change by replaying each schema or configuration
// change that occurred between the runs and checking whether it could
// have caused the change (Section 4.1).
func PlanDiffing(in *Input) (*PDResult, error) {
	sat, unsat := in.satisfactoryRuns(), in.unsatisfactoryRuns()
	satSig, unsatSig := dominantSig(sat), dominantSig(unsat)
	res := &PDResult{
		SatSig:    satSig,
		UnsatSig:  unsatSig,
		SatPlan:   planWithSig(sat, satSig),
		UnsatPlan: planWithSig(unsat, unsatSig),
	}
	if res.SatSig == res.UnsatSig {
		res.CommonPlan = res.UnsatPlan
		return res, nil
	}
	res.Changed = true
	res.Differences = plan.Diff(res.SatPlan, res.UnsatPlan)

	lastSat := sat[len(sat)-1]
	firstUnsat := unsat[0]
	for _, ev := range in.Cfg.Log.Between(lastSat.Start, firstUnsat.Start) {
		switch ev.Kind {
		case topology.EvIndexDropped, topology.EvIndexCreated:
			res.Causes = append(res.Causes, replayIndexEvent(in, ev, res))
		case topology.EvParamChanged:
			res.Causes = append(res.Causes, replayParamEvent(in, ev, res))
		case topology.EvStatsUpdated, topology.EvDMLBatch:
			res.Causes = append(res.Causes, PlanChangeCause{
				Event:  ev,
				Detail: "statistics-related event; replay requires before/after snapshots",
			})
		}
	}
	return res, nil
}

// dominantSig returns the plan signature used by the most runs, ties
// broken toward the signature that appears first. A history holds one
// or two signatures, so they are counted on the stack.
func dominantSig(runs []*exec.RunRecord) string {
	type sigCount struct {
		sig string
		n   int
	}
	var buf [4]sigCount
	counts := buf[:0] // in order of first appearance
	for _, r := range runs {
		i := slices.IndexFunc(counts, func(c sigCount) bool { return c.sig == r.PlanSig })
		if i < 0 {
			counts = append(counts, sigCount{sig: r.PlanSig})
			i = len(counts) - 1
		}
		counts[i].n++
	}
	best, bestN := "", 0
	for _, c := range counts {
		if c.n > bestN {
			best, bestN = c.sig, c.n
		}
	}
	return best
}

// planWithSig returns a run's plan carrying the given signature.
func planWithSig(runs []*exec.RunRecord, sig string) *plan.Plan {
	for _, r := range runs {
		if r.PlanSig == sig {
			return r.Plan
		}
	}
	if len(runs) > 0 {
		return runs[0].Plan
	}
	return nil
}

// replayIndexEvent tests whether an index drop/creation explains the plan
// change by toggling the index and re-running the optimizer. It replays on
// a clone of the catalog through its own optimizer: the live catalog keeps
// serving the instance's driver and sibling diagnoses, untouched, and
// both plans come from one consistent copy of it.
func replayIndexEvent(in *Input, ev topology.Event, res *PDResult) PlanChangeCause {
	idx := string(ev.Subject)
	cause := PlanChangeCause{Event: ev}

	cat := in.Cat.Clone()
	o := opt.New(cat)
	after, errA := o.PlanQuery(in.Query, in.Stats, in.Params)
	var toggled bool
	if ev.Kind == topology.EvIndexDropped {
		toggled = cat.RestoreIndex(idx)
	} else {
		toggled = cat.DropIndex(idx)
	}
	if !toggled {
		cause.Detail = fmt.Sprintf("unknown index %q", idx)
		return cause
	}
	before, errB := o.PlanQuery(in.Query, in.Stats, in.Params)
	if errB != nil || errA != nil {
		cause.Detail = "optimizer replay failed"
		return cause
	}
	cause.Explains = before.Signature() == res.SatSig && after.Signature() == res.UnsatSig
	if cause.Explains {
		cause.Detail = fmt.Sprintf("replaying %s of %s reproduces the plan change", ev.Kind, idx)
	} else {
		cause.Detail = fmt.Sprintf("replaying %s of %s does not reproduce the change", ev.Kind, idx)
	}
	return cause
}

// replayParamEvent tests whether a parameter change explains the plan
// change by re-planning under the old and new values, on parameter clones
// through an optimizer of its own, so the replay neither reads nor evicts
// the instance optimizer's memo.
func replayParamEvent(in *Input, ev topology.Event, res *PDResult) PlanChangeCause {
	cause := PlanChangeCause{Event: ev}
	name, oldV, newV := string(ev.Subject), ev.Old, ev.Value
	pOld := in.Params.Clone()
	pOld.Set(name, oldV)
	pNew := in.Params.Clone()
	pNew.Set(name, newV)
	o := opt.New(in.Cat)
	before, errB := o.PlanQuery(in.Query, in.Stats, pOld)
	after, errA := o.PlanQuery(in.Query, in.Stats, pNew)
	if errB != nil || errA != nil {
		cause.Detail = "optimizer replay failed"
		return cause
	}
	cause.Explains = before.Signature() == res.SatSig && after.Signature() == res.UnsatSig
	if cause.Explains {
		cause.Detail = fmt.Sprintf("changing %s from %g to %g reproduces the plan change", name, oldV, newV)
	} else {
		cause.Detail = fmt.Sprintf("changing %s from %g to %g does not reproduce the change", name, oldV, newV)
	}
	return cause
}
