package diag

import (
	"context"
	"strconv"

	"diads/internal/apg"
	"diads/internal/cache"
	"diads/internal/pipeline"
	"diads/internal/simtime"
	"diads/internal/symptoms"
)

// Module names of the DIADS pipeline, as traces and telemetry label them.
const (
	KeyPD    = "pd"
	KeyAPG   = "apg"
	KeyCO    = "co"
	KeyDA    = "da"
	KeyCR    = "cr"
	KeyFacts = "facts"
	KeySD    = "sd"
	KeyIA    = "ia"
)

// PipelineDIADS is the name of the paper's Figure 2 workflow.
const PipelineDIADS = "diads"

// Seed validates the input and returns the copy of it a diagnosis reads:
// the run history already partitioned by label, and by the plan the
// drill-down will analyze, and the runs' evidence windows, so the modules
// share one filter-and-sort instead of repeating it. The caller's Input
// is never written.
func Seed(in *Input) (*Input, error) {
	seeded := *in
	seeded.sat, seeded.unsat = in.partition(nil)
	if err := seeded.validate(); err != nil {
		return nil, err
	}
	seeded.planSig = dominantSig(seeded.unsat)
	seeded.satOnPlan = withPlanSig(seeded.sat, seeded.planSig)
	seeded.unsatOnPlan = withPlanSig(seeded.unsat, seeded.planSig)
	nSat := len(seeded.sat)
	win := appendReadWindows(make([]simtime.Interval, 0, nSat+len(seeded.unsat)), seeded.sat)
	win = appendReadWindows(win, seeded.unsat)
	seeded.satWin, seeded.unsatWin = win[:nSat:nSat], win[nSat:]
	return &seeded, nil
}

// state is one diagnosis's state: the seeded input every module reads,
// and the Result each module writes its output into. It never leaves the
// goroutine running the diagnosis.
type state struct {
	in *Input
	*Result
}

// has reports whether a module's output is in the Result — the
// interactive mode's dependency check. SD leaves Causes nil without a
// symptoms database, so it counts as run with the fact base: RunSD runs
// the two together, and SD cannot fail.
func (s *state) has(module string) bool {
	switch module {
	case KeyPD:
		return s.PD != nil
	case KeyAPG:
		return s.APG != nil
	case KeyCO:
		return s.CO != nil
	case KeyDA:
		return s.DA != nil
	case KeyCR:
		return s.CR != nil
	case KeyFacts, KeySD:
		return s.Facts != nil
	}
	return s.IA != nil
}

type module = pipeline.Module[*state]

// diadsPipeline is the paper's Figure 2 workflow, in dependency order:
//
//	pd ──► apg ──► co ──► da ──┬─► facts ──► sd ──► ia
//	                    └─► cr ──┘
//
// Module PD short-circuits the drill-down when the plan changed
// (plan-change analysis is then the whole diagnosis); DA and CR are
// independent given CO; the APG build and the symptoms-database
// evaluation consult the input's caches when it carries them. Deps are
// the interactive mode's ordering checks.
var diadsPipeline = pipeline.New(PipelineDIADS,
	module{Name: KeyPD, Run: runPD},
	module{Name: KeyAPG, Deps: []string{KeyPD}, Run: runAPG},
	module{Name: KeyCO, Deps: []string{KeyAPG}, Run: runCO},
	module{Name: KeyDA, Deps: []string{KeyAPG, KeyCO}, Run: runDA},
	module{Name: KeyCR, Deps: []string{KeyAPG, KeyCO}, Run: runCR},
	module{Name: KeyFacts, Deps: []string{KeyPD, KeyAPG, KeyCO, KeyDA, KeyCR}, Run: runFacts},
	module{Name: KeySD, Deps: []string{KeyAPG, KeyFacts}, Run: runSD},
	module{Name: KeyIA, Deps: []string{KeyAPG, KeyCO, KeySD}, Run: runIA},
)

// cached returns c's value under key(), or build's result stored back
// under it, with the outcome the trace records; a nil cache only builds.
func cached[V any](c *cache.LRU[string, V], key func() string, build func() (V, error)) (V, pipeline.CacheOutcome, error) {
	if c == nil {
		v, err := build()
		return v, pipeline.CacheNone, err
	}
	k := key()
	if v, ok := c.Get(k); ok {
		return v, pipeline.CacheHit, nil
	}
	v, err := build()
	if err == nil {
		c.Put(k, v)
	}
	return v, pipeline.CacheMiss, err
}

// runPD executes Module PD. A changed plan halts the pipeline: the
// drill-down modules are meaningless without a common plan.
func runPD(_ context.Context, s *state) (bool, pipeline.CacheOutcome, error) {
	pd, err := PlanDiffing(s.in)
	if err != nil {
		return false, pipeline.CacheNone, err
	}
	s.PD = pd
	return pd.Changed, pipeline.CacheNone, nil
}

// runAPG builds the Annotated Plan Graph of the common plan, through the
// APG cache by (cache scope, plan signature) when the input carries one
// (the online service shares one across workers; the scope keeps fleet
// instances' topologies apart).
func runAPG(_ context.Context, s *state) (bool, pipeline.CacheOutcome, error) {
	p := s.PD.CommonPlan
	g, outcome, err := cached(s.in.APGCache,
		func() string { return s.in.CacheScope + "|" + p.Signature() },
		func() (*apg.APG, error) { return apg.Build(p, s.in.Cfg, s.in.Cat, s.in.Server) })
	if err == nil {
		s.APG = g
	}
	return false, outcome, err
}

// runCO executes Module CO over the common plan.
func runCO(_ context.Context, s *state) (bool, pipeline.CacheOutcome, error) {
	co, err := CorrelatedOperators(s.in, s.APG.Plan)
	if err == nil {
		s.CO = co
	}
	return false, pipeline.CacheNone, err
}

// runDA executes Module DA; independent of Module CR given CO.
func runDA(_ context.Context, s *state) (bool, pipeline.CacheOutcome, error) {
	da, err := DependencyAnalysis(s.in, s.APG, s.CO)
	if err == nil {
		s.DA = da
	}
	return false, pipeline.CacheNone, err
}

// runCR executes Module CR; independent of Module DA given CO.
func runCR(_ context.Context, s *state) (bool, pipeline.CacheOutcome, error) {
	cr, err := CorrelatedRecordCounts(s.in, s.APG.Plan, s.CO)
	if err == nil {
		s.CR = cr
	}
	return false, pipeline.CacheNone, err
}

// runFacts assembles the fact base all downstream reasoning reads.
func runFacts(_ context.Context, s *state) (bool, pipeline.CacheOutcome, error) {
	s.Facts = BuildFacts(s.in, s.APG, s.PD, s.CO, s.DA, s.CR)
	return false, pipeline.CacheNone, nil
}

// runSD evaluates the symptoms database, through the SD cache when the
// input carries one. Without a database the diagnosis still carries the
// facts — the paper notes DIADS usefully narrows the search space even
// when the database is missing or incomplete.
//
// The cache key is (cache scope, plan signature, fact-base fingerprint,
// SymDB version). The version term makes installing a mined entry into a
// live shared database invalidate prior evaluations instead of hiding the
// new entry behind stale cache hits.
func runSD(_ context.Context, s *state) (bool, pipeline.CacheOutcome, error) {
	db := s.in.SymDB
	if db == nil {
		s.Causes = nil
		return false, pipeline.CacheNone, nil
	}
	causes, outcome, err := cached(s.in.SDCache,
		func() string {
			return s.in.CacheScope + "|" + s.APG.Plan.Signature() + "/" + s.Facts.Fingerprint() +
				"@v" + strconv.Itoa(db.Version())
		},
		func() ([]symptoms.CauseInstance, error) {
			bp := bindingScratch.Get().(*[]symptoms.Binding)
			*bp = appendBindings((*bp)[:0], s.in, s.APG)
			causes := db.Evaluate(s.Facts, *bp)
			bindingScratch.Put(bp)
			return causes, nil
		})
	s.Causes = causes
	return false, outcome, err
}

// runIA executes Module IA over the medium- and high-confidence causes.
func runIA(_ context.Context, s *state) (bool, pipeline.CacheOutcome, error) {
	ia, err := ImpactAnalysis(s.in, s.APG, s.CO, s.Causes)
	if err == nil {
		s.IA = ia
	}
	return false, pipeline.CacheNone, err
}
