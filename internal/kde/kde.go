// Package kde implements Gaussian kernel density estimation, the
// statistical machinery of the paper's Modules CO, DA, and CR. DIADS
// learns the probability density of an observable (operator running time,
// component performance metric, record count) from the satisfactory runs
// and scores unsatisfactory observations by the estimated
// prob(S <= u): values near 1 mean the observation sits far above the
// satisfactory range — an anomaly.
//
// The paper chose KDE over heavier models (e.g. Bayesian networks)
// because it "can produce accurate results with few tens of samples, and
// is more robust to noise"; experiment E14 reproduces that comparison.
package kde

import (
	"errors"
	"math"
	"slices"
)

// ErrNoSamples is returned when an estimator is built from no data.
var ErrNoSamples = errors.New("kde: no samples")

// Estimator is a one-dimensional Gaussian KDE.
type Estimator struct {
	samples []float64
	h       float64
}

// NewEstimator fits a KDE to the samples using Silverman's rule of thumb
// with the robust scale estimate min(stddev, IQR/1.34). Degenerate sample
// sets (all equal) get a tiny positive bandwidth so the CDF behaves as a
// step function.
func NewEstimator(samples []float64) (*Estimator, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	e := fit(slices.Clone(samples))
	return &e, nil
}

// fit sorts s in place, keeps it as the estimator's samples, and derives
// the bandwidth. s must be non-empty.
func fit(s []float64) Estimator {
	slices.Sort(s)

	n := float64(len(s))
	mean := 0.0
	for _, v := range s {
		mean += v
	}
	mean /= n
	variance := 0.0
	for _, v := range s {
		variance += (v - mean) * (v - mean)
	}
	sd := 0.0
	if len(s) > 1 {
		sd = math.Sqrt(variance / (n - 1))
	}
	iqr := quantileSorted(s, 0.75) - quantileSorted(s, 0.25)
	scale := sd
	if r := iqr / 1.34; r > 0 && (scale == 0 || r < scale) {
		scale = r
	}
	h := 1.06 * scale * math.Pow(n, -0.2)
	if h <= 0 {
		h = math.Max(1e-12, 1e-6*math.Abs(mean))
	}
	return Estimator{samples: s, h: h}
}

// Bandwidth returns the fitted kernel bandwidth.
func (e *Estimator) Bandwidth() float64 { return e.h }

// N returns the number of fitted samples.
func (e *Estimator) N() int { return len(e.samples) }

// Density returns the estimated probability density at x.
func (e *Estimator) Density(x float64) float64 {
	const invSqrt2Pi = 0.3989422804014327
	var sum float64
	for _, xi := range e.samples {
		z := (x - xi) / e.h
		sum += math.Exp(-0.5*z*z) * invSqrt2Pi
	}
	return sum / (float64(len(e.samples)) * e.h)
}

// CDF returns the paper's anomaly score prob(S <= u): the integral of the
// estimated density up to u.
func (e *Estimator) CDF(u float64) float64 {
	var sum float64
	for _, xi := range e.samples {
		sum += stdNormalCDF((u - xi) / e.h)
	}
	return sum / float64(len(e.samples))
}

// stdNormalCDF is the standard normal CDF.
func stdNormalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// quantileSorted returns the q-quantile of sorted data by linear
// interpolation.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// AnomalyScore fits a KDE to the satisfactory observations and returns the
// mean prob(S <= u) over the unsatisfactory observations — the per-object
// anomaly score Modules CO, DA, and CR threshold. It returns an error if
// either sample set is empty. The estimator lives only for the call, so
// it is fitted on a stack copy of the satisfactory observations (a few
// tens per series; larger sets spill to the heap) — the same sort and the
// same arithmetic as NewEstimator, without its allocations.
func AnomalyScore(satisfactory, unsatisfactory []float64) (float64, error) {
	if len(satisfactory) == 0 || len(unsatisfactory) == 0 {
		return 0, ErrNoSamples
	}
	var buf [64]float64
	est := fit(append(buf[:0], satisfactory...))
	var sum float64
	for _, u := range unsatisfactory {
		sum += est.CDF(u)
	}
	return sum / float64(len(unsatisfactory)), nil
}

// DefaultThreshold is the anomaly-score threshold the paper uses for
// Module CO (operators with score > 0.8 join the correlated operator set).
const DefaultThreshold = 0.8
