package diag_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/experiments"
)

// oracleScore is the KDE anomaly score written the long way with
// math.Erf, the form kde evaluated before its table kernel: Silverman's
// bandwidth over a sorted copy of the satisfactory observations, then
// the mean over the unsatisfactory ones of the mean over the samples of
// 0.5·(1 + erf((u − x)/h/√2)). It shares no code with package kde.
func oracleScore(sat, unsat []float64) (float64, error) {
	if len(sat) == 0 || len(unsat) == 0 {
		return 0, fmt.Errorf("oracle: %d satisfactory, %d unsatisfactory samples", len(sat), len(unsat))
	}
	s := append([]float64(nil), sat...)
	sort.Float64s(s)
	n := float64(len(s))
	var mean float64
	for _, v := range s {
		mean += v
	}
	mean /= n
	var ss float64
	for _, v := range s {
		ss += (v - mean) * (v - mean)
	}
	sd := 0.0
	if len(s) > 1 {
		sd = math.Sqrt(ss / (n - 1))
	}
	quantile := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo, hi := math.Floor(pos), math.Ceil(pos)
		if lo == hi {
			return s[int(lo)]
		}
		frac := pos - lo
		return s[int(lo)]*(1-frac) + s[int(hi)]*frac
	}
	scale := sd
	if r := (quantile(0.75) - quantile(0.25)) / 1.34; r > 0 && (scale == 0 || r < scale) {
		scale = r
	}
	h := 1.06 * scale * math.Pow(n, -0.2)
	if h <= 0 {
		h = math.Max(1e-12, 1e-6*math.Abs(mean))
	}
	var total float64
	for _, u := range unsat {
		var cdf float64
		for _, x := range s {
			cdf += 0.5 * (1 + math.Erf((u-x)/h/math.Sqrt2))
		}
		total += cdf / n
	}
	return total / float64(len(unsat)), nil
}

// oracleTolerance is how far a kde score may sit from the math.Erf
// oracle: each term of the kernel is within 2^-53 of the math.Erf form,
// and the sums round on the same grid.
const oracleTolerance = 4 * 0x1p-53

// TestScoresMatchErfOracle diagnoses the nine scenarios at seeds 1–10
// and recomputes every CO, CR and DA score with the math.Erf oracle: each
// must be within oracleTolerance, and the correlated operator, record
// count and component sets (COS, CRS, CCS) the oracle's scores select
// must be the ones the modules selected.
func TestScoresMatchErfOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("90 cold diagnoses")
	}
	var scores, moved int
	var worst float64
	check := func(what string, got, want float64) {
		t.Helper()
		scores++
		d := math.Abs(got - want)
		if d > oracleTolerance {
			t.Errorf("%s: score %.17g, math.Erf oracle %.17g: off by %.3g·2^-53", what, got, want, d/0x1p-53)
		}
		if d != 0 {
			moved++
		}
		worst = max(worst, d)
	}
	score := func(sat, unsat []float64) float64 {
		s, err := oracleScore(sat, unsat)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for seed := int64(1); seed <= 10; seed++ {
		for id := experiments.S1SANMisconfig; id <= experiments.SRAIDRebuild; id++ {
			sc, err := experiments.Build(id, seed)
			if err != nil {
				t.Fatalf("scenario %d seed %d: %v", id, seed, err)
			}
			in := sc.Input
			res, err := diag.Diagnose(in)
			if err != nil {
				t.Fatalf("scenario %d seed %d: %v", id, seed, err)
			}
			if res.PD.Changed { // plan regression: PD short-circuits the drill-down
				continue
			}
			what := func(s string) string { return fmt.Sprintf("scenario %d seed %d %s", id, seed, s) }
			p := res.APG.Plan
			satRuns, unsatRuns := in.LabeledRuns()
			sat, unsat := refRunsOnPlan(satRuns, p), refRunsOnPlan(unsatRuns, p)
			threshold := in.Threshold0()

			// CO: every operator but the root.
			recorded := func(op *exec.OpRun) float64 { return float64(op.Recorded) }
			var cos []int
			i := 0
			for _, n := range p.Nodes() {
				if n.ID == p.Root.ID {
					continue
				}
				if i >= len(res.CO.Scores) || res.CO.Scores[i].ID != n.ID {
					t.Fatalf("%s: CO.Scores %v do not list operator %d at %d", what("CO"), res.CO.Scores, n.ID, i)
				}
				want := score(opValues(sat, n.ID, recorded), opValues(unsat, n.ID, recorded))
				check(what(fmt.Sprintf("CO O%d", n.ID)), res.CO.Scores[i].Score, want)
				if want > threshold {
					cos = append(cos, n.ID)
				}
				i++
			}
			if !slices.Equal(res.CO.COS, cos) {
				t.Fatalf("%s: COS %v, oracle %v", what("CO"), res.CO.COS, cos)
			}

			// CR: the COS operators' record counts.
			rows := func(op *exec.OpRun) float64 { return op.ActRows }
			var crs []int
			if len(res.CR.Scores) != len(cos) {
				t.Fatalf("%s: %d scores for a COS of %d", what("CR"), len(res.CR.Scores), len(cos))
			}
			for i, opID := range cos {
				want := score(opValues(sat, opID, rows), opValues(unsat, opID, rows))
				check(what(fmt.Sprintf("CR O%d", opID)), res.CR.Scores[i].Score, want)
				if want > threshold {
					crs = append(crs, opID)
				}
			}
			if !slices.Equal(res.CR.CRS, crs) {
				t.Fatalf("%s: CRS %v, oracle %v", what("CR"), res.CR.CRS, crs)
			}

			// DA: da_reference_test.go's per-call derivation, scored by
			// the oracle.
			wantDA := referenceDAScores(in, res, oracleScore)
			if len(res.DA.Scores) != len(wantDA) {
				t.Fatalf("%s: %d scores, oracle %d", what("DA"), len(res.DA.Scores), len(wantDA))
			}
			var ccs []diag.MetricScore
			for i, w := range wantDA {
				g := res.DA.Scores[i]
				if g.Component != w.Component || g.Metric != w.Metric {
					t.Fatalf("%s[%d] = %s/%s, oracle %s/%s", what("DA"), i, g.Component, g.Metric, w.Component, w.Metric)
				}
				check(what(fmt.Sprintf("DA %s/%s", w.Component, w.Metric)), g.Score, w.Score)
				if w.Score > threshold {
					ccs = append(ccs, g)
				}
			}
			if !slices.Equal(res.DA.CCS, ccs) {
				t.Fatalf("%s: CCS %v, oracle %v", what("DA"), res.DA.CCS, ccs)
			}
		}
	}
	if scores == 0 {
		t.Fatal("no scenario produced scores; the comparison was vacuous")
	}
	t.Logf("%d scores, %d moved off the math.Erf oracle, by at most %.3g·2^-53", scores, moved, worst/0x1p-53)
}
