package diag

import (
	"errors"
	"fmt"
	"slices"

	"diads/internal/dbsys"
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
	for _, ev := range in.Cfg.Log.All() {
		if ev.T <= lastSat.Start || ev.T > firstUnsat.Start {
			continue
		}
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
// change by planning with the index toggled back and as it is. Both
// plans come from one schema read of the live catalog, with the toggle
// laid over it as a value: the catalog keeps serving the instance's
// driver and sibling diagnoses, untouched, and is never copied.
func replayIndexEvent(in *Input, ev topology.Event, res *PDResult) PlanChangeCause {
	idx := string(ev.Subject)
	cause := PlanChangeCause{Event: ev}
	s := in.Cat.Schema()
	toggled, ok := s.With(idx, ev.Kind == topology.EvIndexCreated)
	if !ok {
		cause.Detail = fmt.Sprintf("unknown index %q", idx)
		return cause
	}
	set := in.Params.Settings()
	switch explains, err := reproduces(in, res, toggled, set, s, set); {
	case err != nil:
		cause.Detail = "optimizer replay failed"
	case explains:
		cause.Explains = true
		cause.Detail = "replaying " + string(ev.Kind) + " of " + idx + " reproduces the plan change"
	default:
		cause.Detail = "replaying " + string(ev.Kind) + " of " + idx + " does not reproduce the change"
	}
	return cause
}

// replayParamEvent tests whether a parameter change explains the plan
// change by planning under the old and the new value, each laid over one
// read of the parameters.
func replayParamEvent(in *Input, ev topology.Event, res *PDResult) PlanChangeCause {
	cause := PlanChangeCause{Event: ev}
	name, oldV, newV := string(ev.Subject), ev.Old, ev.Value
	s, set := in.Cat.Schema(), in.Params.Settings()
	switch explains, err := reproduces(in, res, s, set.With(name, oldV), s, set.With(name, newV)); {
	case err != nil:
		cause.Detail = "optimizer replay failed"
	case explains:
		cause.Explains = true
		cause.Detail = fmt.Sprintf("changing %s from %g to %g reproduces the plan change", name, oldV, newV)
	default:
		cause.Detail = fmt.Sprintf("changing %s from %g to %g does not reproduce the change", name, oldV, newV)
	}
	return cause
}

// reproduces reports whether the optimizer chooses the satisfactory
// runs' plan under the state before a change (s0, p0) and the
// unsatisfactory runs' plan under the state after it (s1, p1). It
// compares signatures only: no plan is built.
func reproduces(in *Input, res *PDResult, s0 dbsys.Schema, p0 dbsys.Settings, s1 dbsys.Schema, p1 dbsys.Settings) (bool, error) {
	before, errB := opt.Chooses(in.Query, s0, in.Stats, p0, res.SatSig)
	after, errA := opt.Chooses(in.Query, s1, in.Stats, p1, res.UnsatSig)
	return before && after, errors.Join(errB, errA)
}
