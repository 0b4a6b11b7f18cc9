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
//
// Every score term is one standard normal CDF, so the package evaluates
// Φ with its own kernel, NormalCDF, instead of 0.5*(1+math.Erf(z/√2)),
// whose Exp calls made it most of a cold diagnosis's KDE time. The
// kernel covers [0, 6√2) with cells of width 1/16. Each cell holds Φ at
// its centre c as a double-double and the degree-8 Taylor polynomial of
// Q = 1 − Φ about c, built at init (Φ(c) from its Maclaurin series, or
// math.Erfc far out; the derivatives from math.Exp and the Hermite
// recurrence). Φ(z) is 1 − Q(z) for z ≥ 0 and Q(−z) below; past 6√2 it
// is exactly 1 or 0, as math.Erf's ±1 branch makes it. Its error against
// a 300-bit reference is at most 2^-53 (measured: 2^-54, the rounding of
// the result, plus a truncation below 2^-57), and it is within 2^-53 of
// the math.Erf form without reproducing it bit for bit;
// TestNormalCDFReference and TestNormalCDFMatchesErf pin both.
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

// CDF returns the paper's anomaly score prob(S <= u): the integral of the
// estimated density up to u.
func (e *Estimator) CDF(u float64) float64 {
	invH := 1 / e.h
	var sum float64
	for _, xi := range e.samples {
		sum += NormalCDF((u - xi) * invH)
	}
	return sum / float64(len(e.samples))
}

// The kernel's table: cdfCells cells of width 1/cellsPerUnit cover
// [0, cdfLimit). A cell with centre c holds Φ(c) as a double-double
// (hi, lo) and then a_1..a_8, the Taylor coefficients of Q = 1 − Φ
// about c, so Q(c+t) = Q(c) + t·Σ a_k t^(k−1).
const (
	cellsPerUnit = 16
	cdfCells     = 136 // ⌈6√2·16⌉
	cdfDegree    = 8
	cdfLimit     = 6 * math.Sqrt2 // where math.Erf(z/√2) is ±1
	seriesBelow  = 4              // Φ(c) from its Maclaurin series below, math.Erfc above
)

var cdfTable [cdfCells][cdfDegree + 2]float64

// invSqrt2Pi is 1/√(2π) as a double-double.
var invSqrt2Pi = dd{0.3989422804014327, -2.49232720227773e-17}

func init() {
	for i := range cdfTable {
		c := (float64(i) + 0.5) / cellsPerUnit
		cell := &cdfTable[i]
		cell[0], cell[1] = phiAt(c)
		// a_k = Q^(k)(c)/k! with Q^(k)(c) = (−1)^k He_{k−1}(c) φ(c) and the
		// probabilists' Hermite polynomials He_{n+1} = c·He_n − n·He_{n−1}.
		phi := math.Exp(-0.5*c*c) * invSqrt2Pi.hi
		he, hePrev := 1.0, 0.0 // He_0, He_{-1}
		fact, sign := 1.0, -1.0
		for k := 1; k <= cdfDegree; k++ {
			fact *= float64(k)
			cell[k+1] = sign * he * phi / fact
			he, hePrev = c*he-float64(k-1)*hePrev, he
			sign = -sign
		}
	}
}

// phiAt returns Φ(c) for c ≥ 0 as hi + lo, to better than 2^-90.
// Below seriesBelow it sums Φ(c) = ½ + Σ (−1)^n c^(2n+1)/(2^n n! (2n+1)) / √(2π)
// in double-double arithmetic: math.Erfc alone is off by up to an ulp
// of Q, which near Φ = ½ costs the kernel its 2^-53 bound. Above it,
// Q < 4·10⁻⁵, and math.Erfc's error is below 2^-60.
func phiAt(c float64) (hi, lo float64) {
	if c >= seriesBelow {
		return twoSum(1, -0.5*math.Erfc(c/math.Sqrt2))
	}
	c2 := c * c // exact: c has 11 significant bits
	u, sum := dd{c, 0}, dd{c, 0}
	for n := 1; u.hi > 0x1p-110; n++ {
		u = u.mul(dd{c2, 0}).divF(float64(2 * n))
		term := u.divF(float64(2*n + 1))
		if n%2 == 1 {
			term = dd{-term.hi, -term.lo}
		}
		sum = sum.add(term)
	}
	p := dd{0.5, 0}.add(sum.mul(invSqrt2Pi))
	return p.hi, p.lo
}

// dd is an unevaluated sum hi + lo with |lo| ≤ ulp(hi)/2, used only to
// build the table.
type dd struct{ hi, lo float64 }

func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	return s, (a - (s - bb)) + (b - bb)
}

func (x dd) add(y dd) dd {
	s, e := twoSum(x.hi, y.hi)
	s, e = twoSum(s, e+x.lo+y.lo)
	return dd{s, e}
}

func (x dd) mul(y dd) dd {
	p := x.hi * y.hi
	e := math.FMA(x.hi, y.hi, -p) + x.hi*y.lo + x.lo*y.hi
	p, e = twoSum(p, e)
	return dd{p, e}
}

func (x dd) divF(f float64) dd {
	q := x.hi / f
	r := (math.FMA(-q, f, x.hi) + x.lo) / f
	q, r = twoSum(q, r)
	return dd{q, r}
}

// NormalCDF is the standard normal CDF Φ(z), the kernel every KDE score
// term goes through (see the package comment for its error bound).
func NormalCDF(z float64) float64 {
	a := math.Abs(z)
	if !(a < cdfLimit) {
		switch {
		case a != a:
			return z // NaN
		case z > 0:
			return 1
		}
		return 0
	}
	i := int(a * cellsPerUnit)
	t := a - (float64(i)+0.5)/cellsPerUnit
	c := &cdfTable[i]
	p := c[9]*t + c[8]
	p = p*t + c[7]
	p = p*t + c[6]
	p = p*t + c[5]
	p = p*t + c[4]
	p = p*t + c[3]
	p = p*t + c[2]
	// Q(a) = Q(c) + t·p, and Φ(c) = hi + lo with 1 − hi exact.
	if z >= 0 {
		return c[0] + (c[1] - t*p)
	}
	return (1 - c[0]) + (t*p - c[1])
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
