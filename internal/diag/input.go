// Package diag implements DIADS's diagnosis workflow (Figure 2 of the
// paper): starting from a query the administrator marked as having
// satisfactory and unsatisfactory runs, it drills down to plans (Module
// PD), operators (Module CO), components (Module DA), and record counts
// (Module CR), maps the observed symptoms to root causes through the
// symptoms database (Module SD), and rolls back up with impact analysis
// (Module IA) to tie causes to their share of the slowdown.
package diag

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"diads/internal/apg"
	"diads/internal/cache"
	"diads/internal/dbsys"
	"diads/internal/exec"
	"diads/internal/kde"
	"diads/internal/metrics"
	"diads/internal/opt"
	"diads/internal/plan"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/topology"
)

// Input is everything the workflow consumes: the run history with the
// administrator's satisfactory/unsatisfactory labels, the monitoring
// store, and the configuration state needed to construct APGs and replay
// plan choices.
type Input struct {
	Query string
	Runs  []*exec.RunRecord
	// Satisfactory maps run IDs to the administrator's labels. Runs
	// absent from the map are ignored.
	Satisfactory map[string]bool

	Store  *metrics.Store
	Cfg    *topology.Config
	Cat    *dbsys.Catalog
	Opt    *opt.Optimizer
	Params *dbsys.Params
	Stats  dbsys.Stats
	Server topology.ID

	// SymDB is the symptoms database; nil means diagnosis stops after the
	// module outputs (the paper notes DIADS still narrows the search
	// space without one).
	SymDB *symptoms.DB
	// Threshold is the anomaly-score threshold (default 0.8).
	Threshold float64

	// APGCache, when non-nil, caches built Annotated Plan Graphs by plan
	// signature across diagnoses. The concurrent diagnosis service shares
	// one cache between its workers so repeated diagnoses of the same
	// plan skip the topology walk. Entries assume a stable SAN
	// configuration; purge the cache after configuration changes.
	APGCache *cache.LRU[string, *apg.APG]
	// SDCache, when non-nil, caches symptoms-database evaluations keyed
	// by (plan signature, fact-base fingerprint, SymDB version), so
	// identical symptom sets are not re-scored entry by entry while
	// database growth (mined entries) still invalidates stale results.
	SDCache *cache.LRU[string, []symptoms.CauseInstance]

	// CacheScope namespaces APGCache/SDCache keys. A service diagnosing
	// several fleet instances through shared caches sets it to the
	// instance ID: the instances' plans share signatures but their SAN
	// topologies diverge once faults are injected, so a cached APG from
	// one instance must never satisfy another's diagnosis.
	CacheScope string

	// TraceID, when set, tags the diagnosis's pipeline trace and telemetry
	// spans. The online service threads the triggering SlowdownEvent's
	// deterministic trace ID here so one slowdown can be followed from
	// detection through every module it ran. Purely observational: it
	// never influences module results or report bytes.
	TraceID string

	// sat and unsat are the label partitions of Runs in time order,
	// computed once per diagnosis by Seed on its own copy of the
	// Input (the caller's is never written, so one Input may serve
	// concurrent diagnoses). Module functions called on an Input that
	// never passed through Seed compute them per call. validate
	// rejects an empty partition, so nil means "not computed". Read-only.
	sat, unsat []*exec.RunRecord
	// satOnPlan and unsatOnPlan are sat and unsat narrowed to the runs
	// that executed the plan with signature planSig — the unsatisfactory
	// runs' dominant plan, which is the common plan Modules CO, CR and IA
	// analyze whenever the drill-down runs at all. Set by Seed with
	// the partitions above; planSig "" means "not computed". Read-only.
	planSig                string
	satOnPlan, unsatOnPlan []*exec.RunRecord
	// satWin and unsatWin are the evidence windows of sat and unsat
	// (ReadWindows), set by Seed with them: Module DA and the fact
	// builder read the same windows. nil means "not computed". Read-only.
	satWin, unsatWin []simtime.Interval
}

// threshold returns the configured or default anomaly threshold.
func (in *Input) threshold() float64 {
	if in.Threshold > 0 {
		return in.Threshold
	}
	return kde.DefaultThreshold
}

// Threshold0 exposes the effective anomaly threshold to other analyzers
// (the silo baselines reuse it for comparability).
func (in *Input) Threshold0() float64 { return in.threshold() }

// LabeledRuns exposes the labeled-satisfactory and the
// labeled-unsatisfactory runs, each in time order, from one partition.
func (in *Input) LabeledRuns() (sat, unsat []*exec.RunRecord) { return in.labeledRuns(nil) }

// stackRuns is the size of the stack array a caller that keeps neither
// partition lends labeledRuns: a batch scenario labels 16 runs, the
// online monitor's history holds 32.
const stackRuns = 64

// labeledRuns returns the satisfactory and the unsatisfactory runs, each
// in time order: the seeded partitions, or one partition of Runs per
// call, carved from buf when it has room. A caller that keeps neither
// half lends it stack storage; one that may keep them passes nil.
func (in *Input) labeledRuns(buf []*exec.RunRecord) (sat, unsat []*exec.RunRecord) {
	if in.sat != nil {
		return in.sat, in.unsat
	}
	return in.partition(buf)
}

// windows returns the evidence windows of the satisfactory and the
// unsatisfactory runs: the seeded ones, or ReadWindows per call.
func (in *Input) windows() (sat, unsat []simtime.Interval) {
	if in.satWin != nil {
		return in.satWin, in.unsatWin
	}
	var buf [stackRuns]*exec.RunRecord
	satRuns, unsatRuns := in.labeledRuns(buf[:])
	return ReadWindows(satRuns), ReadWindows(unsatRuns)
}

// partition splits the labeled runs into the satisfactory and the
// unsatisfactory ones, each in time order (runs starting together keep
// their order in Runs). Both are carved from one array: buf's, when it
// has room, else a new one of their size.
func (in *Input) partition(buf []*exec.RunRecord) (sat, unsat []*exec.RunRecord) {
	nSat, nUnsat := 0, 0
	for _, r := range in.Runs {
		if s, ok := in.Satisfactory[r.RunID]; ok {
			if s {
				nSat++
			} else {
				nUnsat++
			}
		}
	}
	all := slices.Grow(buf[:0], nSat+nUnsat)
	sat, unsat = all[:0:nSat], all[nSat:nSat]
	for _, r := range in.Runs {
		if s, ok := in.Satisfactory[r.RunID]; ok {
			if s {
				sat = append(sat, r)
			} else {
				unsat = append(unsat, r)
			}
		}
	}
	byStart := func(a, b *exec.RunRecord) int { return cmp.Compare(a.Start, b.Start) }
	slices.SortStableFunc(sat, byStart)
	slices.SortStableFunc(unsat, byStart)
	return sat, unsat
}

// runsOnPlan returns the satisfactory and unsatisfactory runs that
// executed plan p, each in time order: the seeded partitions when p is the
// plan they were seeded for, one filter pass per call otherwise.
func (in *Input) runsOnPlan(p *plan.Plan) (sat, unsat []*exec.RunRecord) {
	sig := p.Signature()
	if in.planSig == sig { // never true un-seeded: a signature is not ""
		return in.satOnPlan, in.unsatOnPlan
	}
	sat, unsat = in.labeledRuns(nil)
	return withPlanSig(sat, sig), withPlanSig(unsat, sig)
}

// withPlanSig filters runs to those recorded under the plan signature:
// runs itself when every run was, else an exactly sized copy.
func withPlanSig(runs []*exec.RunRecord, sig string) []*exec.RunRecord {
	n := 0
	for _, r := range runs {
		if r.PlanSig == sig {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if n == len(runs) {
		return runs
	}
	out := make([]*exec.RunRecord, 0, n)
	for _, r := range runs {
		if r.PlanSig == sig {
			out = append(out, r)
		}
	}
	return out
}

// MinSatisfactory is the fewest satisfactory runs a diagnosis accepts:
// the baseline every module scores the unsatisfactory runs against. The
// online monitor shares it, so it never mints an event validate would
// refuse.
const MinSatisfactory = 3

// validate checks the input is diagnosable.
func (in *Input) validate() error {
	if len(in.Runs) == 0 {
		return fmt.Errorf("diag: no runs for query %s", in.Query)
	}
	sat, unsat := in.labeledRuns(nil)
	if len(sat) < MinSatisfactory {
		return fmt.Errorf("diag: need at least %d satisfactory runs, have %d", MinSatisfactory, len(sat))
	}
	if len(unsat) < 1 {
		return fmt.Errorf("diag: need at least 1 unsatisfactory run, have %d", len(unsat))
	}
	if in.Store == nil || in.Cfg == nil || in.Cat == nil {
		return fmt.Errorf("diag: store, config, and catalog are required")
	}
	return nil
}

// LabelByDuration produces labels declaratively, like the paper's
// "every query execution that has a running time greater than 30 minutes
// is unsatisfactory": runs with duration <= cutoff are satisfactory.
func LabelByDuration(runs []*exec.RunRecord, cutoff simtime.Duration) map[string]bool {
	labels := make(map[string]bool, len(runs))
	for _, r := range runs {
		labels[r.RunID] = r.Duration() <= cutoff
	}
	return labels
}

// LabelByWindow labels runs starting inside unsatWindow as
// unsatisfactory and everything else satisfactory, like the paper's "all
// runs from 2 PM to 3 PM were unsatisfactory".
func LabelByWindow(runs []*exec.RunRecord, unsatWindow simtime.Interval) map[string]bool {
	labels := make(map[string]bool, len(runs))
	for _, r := range runs {
		labels[r.RunID] = !unsatWindow.Contains(r.Start)
	}
	return labels
}

// LabelAdaptive labels runs relative to the median of the first few runs:
// anything more than factor times the early median is unsatisfactory.
// It is a convenience for experiments; real administrators mark runs
// explicitly or declaratively.
func LabelAdaptive(runs []*exec.RunRecord, factor float64) map[string]bool {
	if len(runs) == 0 {
		return nil
	}
	ordered := make([]*exec.RunRecord, len(runs))
	copy(ordered, runs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })
	n := len(ordered) / 3
	if n < 3 {
		n = min(3, len(ordered))
	}
	early := make([]float64, 0, n)
	for _, r := range ordered[:n] {
		early = append(early, float64(r.Duration()))
	}
	sort.Float64s(early)
	median := early[len(early)/2]
	labels := make(map[string]bool, len(runs))
	for _, r := range ordered {
		labels[r.RunID] = float64(r.Duration()) <= median*factor
	}
	return labels
}
