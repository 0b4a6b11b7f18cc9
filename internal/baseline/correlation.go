package baseline

import (
	"math"

	"diads/internal/kde"
	"diads/internal/simtime"
)

// AnomalyScorer scores how anomalous unsatisfactory observations are
// relative to satisfactory ones, on [0, 1]. DIADS's KDE and the
// correlation baseline both satisfy it so experiments can sweep them
// interchangeably.
type AnomalyScorer interface {
	Name() string
	Score(sat, unsat []float64) (float64, error)
}

// KDEScorer adapts the paper's kernel density estimation.
type KDEScorer struct{}

// Name implements AnomalyScorer.
func (KDEScorer) Name() string { return "KDE" }

// Score implements AnomalyScorer.
func (KDEScorer) Score(sat, unsat []float64) (float64, error) {
	return kde.AnomalyScore(sat, unsat)
}

// GaussianScorer is the parametric baseline standing in for heavier
// model-based correlation analysis (the paper cites Bayesian networks):
// it fits a single Gaussian to the satisfactory sample — a strong
// distributional assumption — and scores unsatisfactory observations by
// the fitted CDF. With few samples the variance estimate is unstable, and
// a single outlier in the training data inflates sigma enough to mask
// real anomalies; both effects are what the paper's observation about
// KDE's robustness refers to.
type GaussianScorer struct{}

// Name implements AnomalyScorer.
func (GaussianScorer) Name() string { return "Gaussian-model" }

// Score implements AnomalyScorer.
func (GaussianScorer) Score(sat, unsat []float64) (float64, error) {
	if len(sat) == 0 || len(unsat) == 0 {
		return 0, kde.ErrNoSamples
	}
	var mean float64
	for _, v := range sat {
		mean += v
	}
	mean /= float64(len(sat))
	var variance float64
	for _, v := range sat {
		variance += (v - mean) * (v - mean)
	}
	// Maximum-likelihood variance: biased low for tiny n, blown up by
	// outliers — deliberately the naive estimator.
	variance /= float64(len(sat))
	sigma := math.Sqrt(variance)
	if sigma == 0 {
		sigma = math.Max(1e-12, 1e-6*math.Abs(mean))
	}
	var sum float64
	for _, u := range unsat {
		sum += kde.NormalCDF((u - mean) / sigma)
	}
	return sum / float64(len(unsat)), nil
}

// ThresholdCorrScorer is a rank-correlation style baseline: the fraction
// of unsatisfactory observations exceeding the satisfactory maximum. It
// needs many samples before its 0/1 steps stabilize.
type ThresholdCorrScorer struct{}

// Name implements AnomalyScorer.
func (ThresholdCorrScorer) Name() string { return "Threshold-correlation" }

// Score implements AnomalyScorer.
func (ThresholdCorrScorer) Score(sat, unsat []float64) (float64, error) {
	if len(sat) == 0 || len(unsat) == 0 {
		return 0, kde.ErrNoSamples
	}
	max := sat[0]
	for _, v := range sat {
		if v > max {
			max = v
		}
	}
	exceed := 0
	for _, u := range unsat {
		if u > max {
			exceed++
		}
	}
	return float64(exceed) / float64(len(unsat)), nil
}

// DetectionTrial is one synthetic detection problem: satisfactory
// observations from a healthy regime and unsatisfactory ones either from
// the same regime (label false) or a slowed regime (label true).
type DetectionTrial struct {
	Sat     []float64
	Unsat   []float64
	Anomaly bool
}

// Accuracy evaluates a scorer over trials at the given threshold,
// returning the fraction of correct detections.
func Accuracy(s AnomalyScorer, trials []DetectionTrial, threshold float64) float64 {
	if len(trials) == 0 {
		return 0
	}
	correct := 0
	for _, tr := range trials {
		score, err := s.Score(tr.Sat, tr.Unsat)
		if err != nil {
			continue
		}
		if (score > threshold) == tr.Anomaly {
			correct++
		}
	}
	return float64(correct) / float64(len(trials))
}

// MakeTrials generates detection problems with the given satisfactory
// sample count, slowdown factor for anomalous trials, and noise level.
// Half the trials are anomalous. Outliers contaminate the satisfactory
// samples at the given rate, reproducing noisy production monitoring.
func MakeTrials(rnd *simtime.Rand, n, satSamples int, slowdown, noiseSigma, outlierRate float64) []DetectionTrial {
	trials := make([]DetectionTrial, 0, n)
	for i := 0; i < n; i++ {
		base := 10 + 5*rnd.Float64()
		sat := make([]float64, satSamples)
		for j := range sat {
			sat[j] = rnd.Jitter(base, noiseSigma)
			if rnd.Float64() < outlierRate {
				sat[j] *= 3 + 5*rnd.Float64()
			}
		}
		anomaly := i%2 == 0
		level := base
		if anomaly {
			level = base * slowdown
		}
		unsat := make([]float64, 3)
		for j := range unsat {
			unsat[j] = rnd.Jitter(level, noiseSigma)
		}
		trials = append(trials, DetectionTrial{Sat: sat, Unsat: unsat, Anomaly: anomaly})
	}
	return trials
}
