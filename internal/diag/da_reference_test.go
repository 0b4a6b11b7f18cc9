package diag_test

import (
	"math"
	"slices"
	"sort"
	"testing"

	"diads/internal/apg"
	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/experiments"
	"diads/internal/kde"
	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// referenceDAScores re-derives Module DA's score list the slow way, from
// public per-call readers only: the candidate components off the APG's
// dependency paths, Store.MetricsFor per component, one Store.WindowMean
// per (series, run), score per series (kde.AnomalyScore, or the
// math.Erf oracle of kde_oracle_test.go). It is the reference the
// batched read path (ordered index + Store.WindowMeans) is held to, so it
// must not share code with it.
func referenceDAScores(in *diag.Input, res *diag.Result, score func(sat, unsat []float64) (float64, error)) []diag.MetricScore {
	seen := map[topology.ID]bool{}
	for _, opID := range res.CO.COS {
		dp := res.APG.DependencyPath(opID)
		for _, id := range dp.Inner {
			seen[id] = true
		}
		for _, id := range dp.Outer {
			seen[id] = true
		}
	}
	comps := make([]string, 0, len(seen))
	for id := range seen {
		comps = append(comps, string(id))
	}
	sort.Strings(comps)

	perRun := func(c string, m metrics.Metric, runs []*exec.RunRecord) []float64 {
		var out []float64
		for _, r := range runs {
			win := metrics.ReadWindow(simtime.NewInterval(r.Start, r.Stop))
			if mean, n := in.Store.WindowMean(c, m, win); n > 0 {
				out = append(out, mean)
			}
		}
		return out
	}
	sat, unsat := in.SatRuns(), in.UnsatRuns()
	var out []diag.MetricScore
	for _, c := range comps {
		for _, m := range in.Store.MetricsFor(c) {
			satVals, unsatVals := perRun(c, m, sat), perRun(c, m, unsat)
			if len(satVals) < 4 || len(unsatVals) == 0 {
				continue
			}
			sc, err := score(satVals, unsatVals)
			if err != nil {
				continue
			}
			out = append(out, diag.MetricScore{Component: c, Metric: m, Score: sc})
		}
	}
	return out
}

// TestDAScoresBitIdenticalToPerCallReference diagnoses the nine scenarios
// and demands that Module DA's Scores — which series were scored, in
// which order, and every score's bits — equal the per-call reference, and
// that ScoreOf's binary search finds each of them.
func TestDAScoresBitIdenticalToPerCallReference(t *testing.T) {
	scored := 0
	for id := experiments.S1SANMisconfig; id <= experiments.SRAIDRebuild; id++ {
		sc, err := experiments.Build(id, 700+int64(id))
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		res, err := diag.Diagnose(sc.Input)
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		if res.DA == nil { // plan regression: PD short-circuits the drill-down
			continue
		}
		want := referenceDAScores(sc.Input, res, kde.AnomalyScore)
		got := res.DA.Scores
		if len(got) != len(want) {
			t.Fatalf("scenario %d: DA scored %d series, reference %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i].Component != want[i].Component || got[i].Metric != want[i].Metric ||
				math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Errorf("scenario %d score %d: DA %s/%s=%.17g, reference %s/%s=%.17g", id, i,
					got[i].Component, got[i].Metric, got[i].Score,
					want[i].Component, want[i].Metric, want[i].Score)
			}
			if s := res.DA.ScoreOf(want[i].Component, want[i].Metric); math.Float64bits(s) != math.Float64bits(want[i].Score) {
				t.Errorf("scenario %d: ScoreOf(%s, %s) = %.17g, want %.17g", id, want[i].Component, want[i].Metric, s, want[i].Score)
			}
		}
		if s := res.DA.ScoreOf("no-such-component", metrics.VolReadIO); s != 0 {
			t.Errorf("scenario %d: ScoreOf(absent) = %g, want 0", id, s)
		}
		scored += len(want)
	}
	if scored == 0 {
		t.Fatal("no scenario produced DA scores; the comparison was vacuous")
	}
}

// refCandidateComponents is Module DA's candidate set derived the long
// way: every correlated operator's inner and outer paths, concatenated,
// sorted and compacted.
func refCandidateComponents(g *apg.APG, cos []int) []topology.ID {
	var out []topology.ID
	for _, id := range cos {
		dp := g.DependencyPath(id)
		out = append(append(out, dp.Inner...), dp.Outer...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestCandidateComponentsMatchConcatenation holds DA's candidate set,
// the union of the volume paths under the correlated operators plus the
// server and the database, to the long way over the nine scenarios at
// seeds 1, 7 and 42: for the diagnosis's own COS, and for a COS of each
// single operator ID, including two the plan does not have.
func TestCandidateComponentsMatchConcatenation(t *testing.T) {
	for id := experiments.S1SANMisconfig; id <= experiments.SRAIDRebuild; id++ {
		for _, seed := range []int64{1, 7, 42} {
			sc, err := experiments.Build(id, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := diag.Diagnose(sc.Input)
			if err != nil {
				t.Fatal(err)
			}
			g := res.APG
			if g == nil { // plan regression: PD short-circuits; take the last run's plan
				in := sc.Input
				if g, err = apg.Build(in.Runs[len(in.Runs)-1].Plan, in.Cfg, in.Cat, in.Server); err != nil {
					t.Fatal(err)
				}
			}
			var cases [][]int
			if res.CO != nil {
				cases = append(cases, res.CO.COS)
			}
			for op := 0; op <= g.Plan.NumOperators()+1; op++ {
				cases = append(cases, []int{op})
			}
			for _, cos := range cases {
				got := diag.AppendCandidateComponents(nil, g, &diag.COResult{COS: cos})
				if want := refCandidateComponents(g, cos); !slices.Equal(got, want) {
					t.Errorf("S%d seed %d, COS %v: candidates %v, reference %v", id, seed, cos, got, want)
				}
			}
		}
	}
}
