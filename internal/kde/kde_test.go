package kde

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"diads/internal/simtime"
)

func TestEmptySamplesRejected(t *testing.T) {
	if _, err := NewEstimator(nil); err != ErrNoSamples {
		t.Fatalf("want ErrNoSamples, got %v", err)
	}
	if _, err := AnomalyScore(nil, []float64{1}); err == nil {
		t.Fatalf("empty satisfactory set should error")
	}
	if _, err := AnomalyScore([]float64{1}, nil); err == nil {
		t.Fatalf("empty unsatisfactory set should error")
	}
}

func TestCDFBasicShape(t *testing.T) {
	rnd := simtime.NewRand(1, "kde")
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = rnd.Gaussian(100, 10)
	}
	est, err := NewEstimator(samples)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.CDF(100); math.Abs(got-0.5) > 0.12 {
		t.Fatalf("CDF at mean should be ~0.5, got %v", got)
	}
	if got := est.CDF(160); got < 0.99 {
		t.Fatalf("CDF far above range should approach 1, got %v", got)
	}
	if got := est.CDF(40); got > 0.01 {
		t.Fatalf("CDF far below range should approach 0, got %v", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		var samples []float64
		for _, v := range raw {
			if !math.IsNaN(v) && math.Abs(v) < 1e6 {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 || math.IsNaN(a) || math.IsNaN(b) ||
			math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		est, err := NewEstimator(samples)
		if err != nil {
			return false
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		cl, ch := est.CDF(lo), est.CDF(hi)
		return cl <= ch+1e-12 && cl >= -1e-12 && ch <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegenerateSamples(t *testing.T) {
	est, err := NewEstimator([]float64{7, 7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if est.Bandwidth() <= 0 {
		t.Fatalf("bandwidth must stay positive, got %v", est.Bandwidth())
	}
	if got := est.CDF(8); got < 0.999 {
		t.Fatalf("value above a constant sample should score ~1, got %v", got)
	}
	if got := est.CDF(6); got > 0.001 {
		t.Fatalf("value below a constant sample should score ~0, got %v", got)
	}
}

func TestAnomalyScoreSeparatesRegimes(t *testing.T) {
	rnd := simtime.NewRand(2, "kde2")
	sat := make([]float64, 30)
	for i := range sat {
		sat[i] = rnd.Gaussian(10, 1)
	}
	// Unsatisfactory observations 5x the satisfactory mean.
	unsat := []float64{48, 52, 50}
	score, err := AnomalyScore(sat, unsat)
	if err != nil {
		t.Fatal(err)
	}
	if score <= DefaultThreshold {
		t.Fatalf("clear slowdown should exceed the 0.8 threshold, got %v", score)
	}
	// Unsatisfactory observations drawn from the same regime score low.
	same := []float64{9.5, 10.2, 10.0}
	score2, err := AnomalyScore(sat, same)
	if err != nil {
		t.Fatal(err)
	}
	if score2 > DefaultThreshold {
		t.Fatalf("unchanged behaviour should not be anomalous, got %v", score2)
	}
}

func TestAnomalyScoreWithFewSamples(t *testing.T) {
	// The paper's observation: KDE works with few tens of samples. Even
	// with 10 satisfactory runs a 3x slowdown must be detected.
	rnd := simtime.NewRand(3, "kde3")
	sat := make([]float64, 10)
	for i := range sat {
		sat[i] = rnd.Gaussian(20, 2)
	}
	score, err := AnomalyScore(sat, []float64{60})
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.95 {
		t.Fatalf("3x slowdown with 10 samples should score near 1, got %v", score)
	}
}

func TestBandwidthShrinksWithSampleCount(t *testing.T) {
	rnd := simtime.NewRand(4, "kde4")
	small := make([]float64, 10)
	large := make([]float64, 1000)
	for i := range small {
		small[i] = rnd.Gaussian(0, 1)
	}
	for i := range large {
		large[i] = rnd.Gaussian(0, 1)
	}
	es, _ := NewEstimator(small)
	el, _ := NewEstimator(large)
	if el.Bandwidth() >= es.Bandwidth() {
		t.Fatalf("bandwidth should shrink with more samples: %v vs %v",
			es.Bandwidth(), el.Bandwidth())
	}
}

func TestRobustScaleAgainstOutliers(t *testing.T) {
	// One wild outlier in the satisfactory set must not blow up the
	// bandwidth so far that a genuine anomaly goes unnoticed.
	sat := []float64{10, 10.5, 9.8, 10.2, 9.9, 10.1, 10.3, 9.7, 10.0, 500}
	score, err := AnomalyScore(sat, []float64{40})
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.8 {
		t.Fatalf("outlier-robust scale should keep 4x slowdown detectable, got %v", score)
	}
}

func TestQuantileSorted(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	sort.Float64s(s)
	if q := quantileSorted(s, 0.5); q != 3 {
		t.Fatalf("median: %v", q)
	}
	if q := quantileSorted(s, 0); q != 1 {
		t.Fatalf("min: %v", q)
	}
	if q := quantileSorted(s, 1); q != 5 {
		t.Fatalf("max: %v", q)
	}
	if q := quantileSorted([]float64{42}, 0.75); q != 42 {
		t.Fatalf("singleton: %v", q)
	}
}

func TestEstimatorDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	est, _ := NewEstimator(in)
	in[0] = 1000
	if got := est.CDF(10); got < 0.99 {
		t.Fatalf("estimator must copy its input; CDF(10)=%v", got)
	}
}
