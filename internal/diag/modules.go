package diag

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"diads/internal/apg"
	"diads/internal/pipeline"
	"diads/internal/symptoms"
)

// Blackboard keys: the module names of the DIADS pipeline, each keying
// that module's output. KeyInput holds the *Input the driver seeds.
const (
	KeyInput = "input"
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

// NewBoard validates the input and returns a blackboard seeded with it,
// ready for the diagnosis pipeline. The board carries a copy
// of the Input with the run history already partitioned by label, and by
// the plan the drill-down will analyze, so the modules share one
// filter-and-sort instead of repeating it.
func NewBoard(in *Input) (*pipeline.Blackboard, error) {
	seeded := *in
	seeded.sat, seeded.unsat = in.partition()
	if err := seeded.validate(); err != nil {
		return nil, err
	}
	seeded.planSig = dominantSig(seeded.unsat)
	seeded.satOnPlan = withPlanSig(seeded.sat, seeded.planSig)
	seeded.unsatOnPlan = withPlanSig(seeded.unsat, seeded.planSig)
	bb := pipeline.NewBlackboard()
	bb.Put(KeyInput, &seeded)
	return bb, nil
}

// inputOf reads the seeded input back off the blackboard.
func inputOf(bb *pipeline.Blackboard) (*Input, error) {
	in, ok := pipeline.Get[*Input](bb, KeyInput)
	if !ok {
		return nil, fmt.Errorf("diag: blackboard has no %q (seed it with NewBoard)", KeyInput)
	}
	return in, nil
}

// mustDep reads a dependency's output; the engine guarantees presence
// through the dependency declarations, so absence is a programming error.
func mustDep[T any](bb *pipeline.Blackboard, key string) T {
	v, ok := pipeline.Get[T](bb, key)
	if !ok {
		panic(fmt.Sprintf("diag: module output %q missing despite dependency declaration", key))
	}
	return v
}

// DiadsPipeline returns the paper's Figure 2 workflow as a module DAG:
//
//	pd ──► apg ──► co ──► da ──┬─► facts ──► sd ──► ia
//	                    └─► cr ──┘
//
// Module PD short-circuits the drill-down when the plan changed
// (plan-change analysis is then the whole diagnosis); DA and CR are
// independent given CO; the APG build and the symptoms-database
// evaluation are cache-satisfiable through engine middleware when the
// input carries caches. The pipeline is stateless
// and shared: all per-run state lives on the blackboard.
func DiadsPipeline() *pipeline.Pipeline { return diadsPipeline() }

var diadsPipeline = sync.OnceValue(func() *pipeline.Pipeline {
	p, err := pipeline.New(PipelineDIADS,
		&pipeline.Module{Name: KeyPD, Run: runPD},
		&pipeline.Module{Name: KeyAPG, Deps: []string{KeyPD}, Run: runAPG, Cache: apgCacheSpec()},
		&pipeline.Module{Name: KeyCO, Deps: []string{KeyAPG}, Run: runCO},
		&pipeline.Module{Name: KeyDA, Deps: []string{KeyAPG, KeyCO}, Run: runDA},
		&pipeline.Module{Name: KeyCR, Deps: []string{KeyAPG, KeyCO}, Run: runCR},
		&pipeline.Module{Name: KeyFacts, Deps: []string{KeyPD, KeyAPG, KeyCO, KeyDA, KeyCR}, Run: runFacts},
		&pipeline.Module{Name: KeySD, Deps: []string{KeyAPG, KeyFacts}, Run: runSD, Cache: sdCacheSpec()},
		&pipeline.Module{Name: KeyIA, Deps: []string{KeyAPG, KeyCO, KeySD}, Run: runIA},
	)
	if err != nil {
		panic(err)
	}
	return p
})

// runPD executes Module PD. A changed plan halts the pipeline: the
// drill-down modules are meaningless without a common plan.
func runPD(ctx context.Context, bb *pipeline.Blackboard) (any, error) {
	in, err := inputOf(bb)
	if err != nil {
		return nil, err
	}
	pd, err := PlanDiffing(in)
	if err != nil {
		return nil, err
	}
	if pd.Changed {
		return pipeline.Halt{Out: pd}, nil
	}
	return pd, nil
}

// runAPG builds the Annotated Plan Graph of the common plan.
func runAPG(ctx context.Context, bb *pipeline.Blackboard) (any, error) {
	in, err := inputOf(bb)
	if err != nil {
		return nil, err
	}
	pd := mustDep[*PDResult](bb, KeyPD)
	return apg.Build(pd.CommonPlan, in.Cfg, in.Cat, in.Server)
}

// apgCacheSpec caches built APGs by (cache scope, plan signature) when
// the input carries an APG cache (the online service shares one across
// workers; the scope keeps fleet instances' topologies apart).
func apgCacheSpec() *pipeline.CacheSpec {
	return &pipeline.CacheSpec{
		Key: func(bb *pipeline.Blackboard) (string, bool) {
			in, err := inputOf(bb)
			if err != nil || in.APGCache == nil {
				return "", false
			}
			return in.CacheScope + "|" + mustDep[*PDResult](bb, KeyPD).CommonPlan.Signature(), true
		},
		Get: func(bb *pipeline.Blackboard, key string) (any, bool) {
			in, err := inputOf(bb)
			if err != nil {
				return nil, false
			}
			g, ok := in.APGCache.Get(key)
			if !ok {
				return nil, false
			}
			return g, true
		},
		Put: func(bb *pipeline.Blackboard, key string, v any) {
			in, err := inputOf(bb)
			if err != nil {
				return
			}
			in.APGCache.Put(key, v.(*apg.APG))
		},
	}
}

// runCO executes Module CO over the common plan.
func runCO(ctx context.Context, bb *pipeline.Blackboard) (any, error) {
	in, err := inputOf(bb)
	if err != nil {
		return nil, err
	}
	return CorrelatedOperators(in, mustDep[*apg.APG](bb, KeyAPG).Plan)
}

// runDA executes Module DA; independent of Module CR given CO.
func runDA(ctx context.Context, bb *pipeline.Blackboard) (any, error) {
	in, err := inputOf(bb)
	if err != nil {
		return nil, err
	}
	return DependencyAnalysis(in, mustDep[*apg.APG](bb, KeyAPG), mustDep[*COResult](bb, KeyCO))
}

// runCR executes Module CR; independent of Module DA given CO.
func runCR(ctx context.Context, bb *pipeline.Blackboard) (any, error) {
	in, err := inputOf(bb)
	if err != nil {
		return nil, err
	}
	return CorrelatedRecordCounts(in, mustDep[*apg.APG](bb, KeyAPG).Plan, mustDep[*COResult](bb, KeyCO))
}

// runFacts assembles the fact base all downstream reasoning reads.
func runFacts(ctx context.Context, bb *pipeline.Blackboard) (any, error) {
	in, err := inputOf(bb)
	if err != nil {
		return nil, err
	}
	return BuildFacts(in,
		mustDep[*apg.APG](bb, KeyAPG),
		mustDep[*PDResult](bb, KeyPD),
		mustDep[*COResult](bb, KeyCO),
		mustDep[*DAResult](bb, KeyDA),
		mustDep[*CRResult](bb, KeyCR)), nil
}

// runSD evaluates the symptoms database. Without one the diagnosis still
// carries the facts — the paper notes DIADS usefully narrows the search
// space even when the database is missing or incomplete.
func runSD(ctx context.Context, bb *pipeline.Blackboard) (any, error) {
	in, err := inputOf(bb)
	if err != nil {
		return nil, err
	}
	if in.SymDB == nil {
		return []symptoms.CauseInstance(nil), nil
	}
	g := mustDep[*apg.APG](bb, KeyAPG)
	facts := mustDep[*symptoms.FactBase](bb, KeyFacts)
	return in.SymDB.Evaluate(facts, Bindings(in, g)), nil
}

// sdCacheSpec caches symptoms-database evaluations by (cache scope, plan
// signature, fact-base fingerprint, SymDB version) when the input
// carries an SD cache. The version term makes installing a mined entry
// into a live shared database invalidate prior evaluations instead of
// hiding the new entry behind stale cache hits.
func sdCacheSpec() *pipeline.CacheSpec {
	return &pipeline.CacheSpec{
		Key: func(bb *pipeline.Blackboard) (string, bool) {
			in, err := inputOf(bb)
			if err != nil || in.SDCache == nil || in.SymDB == nil {
				return "", false
			}
			g := mustDep[*apg.APG](bb, KeyAPG)
			facts := mustDep[*symptoms.FactBase](bb, KeyFacts)
			return in.CacheScope + "|" + g.Plan.Signature() + "/" + facts.Fingerprint() +
				"@v" + strconv.Itoa(in.SymDB.Version()), true
		},
		Get: func(bb *pipeline.Blackboard, key string) (any, bool) {
			in, err := inputOf(bb)
			if err != nil {
				return nil, false
			}
			causes, ok := in.SDCache.Get(key)
			if !ok {
				return nil, false
			}
			return causes, true
		},
		Put: func(bb *pipeline.Blackboard, key string, v any) {
			in, err := inputOf(bb)
			if err != nil {
				return
			}
			in.SDCache.Put(key, v.([]symptoms.CauseInstance))
		},
	}
}

// runIA executes Module IA over the medium- and high-confidence causes.
func runIA(ctx context.Context, bb *pipeline.Blackboard) (any, error) {
	in, err := inputOf(bb)
	if err != nil {
		return nil, err
	}
	return ImpactAnalysis(in,
		mustDep[*apg.APG](bb, KeyAPG),
		mustDep[*COResult](bb, KeyCO),
		mustDep[[]symptoms.CauseInstance](bb, KeySD))
}

// fillResult copies whatever module outputs exist on the blackboard into
// the Result — partial boards (interactive steps, plan-change halts)
// fill only what ran.
func fillResult(res *Result, bb *pipeline.Blackboard) {
	if v, ok := pipeline.Get[*PDResult](bb, KeyPD); ok {
		res.PD = v
	}
	if v, ok := pipeline.Get[*apg.APG](bb, KeyAPG); ok {
		res.APG = v
	}
	if v, ok := pipeline.Get[*COResult](bb, KeyCO); ok {
		res.CO = v
	}
	if v, ok := pipeline.Get[*DAResult](bb, KeyDA); ok {
		res.DA = v
	}
	if v, ok := pipeline.Get[*CRResult](bb, KeyCR); ok {
		res.CR = v
	}
	if v, ok := pipeline.Get[*symptoms.FactBase](bb, KeyFacts); ok {
		res.Facts = v
	}
	if v, ok := pipeline.Get[[]symptoms.CauseInstance](bb, KeySD); ok {
		res.Causes = v
	}
	if v, ok := pipeline.Get[*IAResult](bb, KeyIA); ok {
		res.IA = v
	}
}
