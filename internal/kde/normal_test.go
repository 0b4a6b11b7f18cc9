package kde

import (
	"math"
	"math/big"
	"testing"

	"diads/internal/simtime"
)

// refPrec is the working precision of the reference Φ: 300 bits leave
// well over 200 after the cancellation 0.5 − φ(9)·S(9) costs.
const refPrec = 300

// refPi is π by Machin's formula, 16·atan(1/5) − 4·atan(1/239).
var refPi = func() *big.Float {
	atanInv := func(n int64) *big.Float {
		// atan(1/n) = Σ (−1)^k / ((2k+1)·n^(2k+1)).
		x := new(big.Float).SetPrec(refPrec).Quo(big.NewFloat(1).SetPrec(refPrec), big.NewFloat(float64(n)))
		x2 := new(big.Float).SetPrec(refPrec).Mul(x, x)
		sum := new(big.Float).SetPrec(refPrec)
		pow := new(big.Float).SetPrec(refPrec).Set(x)
		term := new(big.Float).SetPrec(refPrec)
		for k := int64(0); pow.MantExp(nil) > -refPrec-16; k++ {
			term.Quo(pow, big.NewFloat(float64(2*k+1)))
			if k%2 == 0 {
				sum.Add(sum, term)
			} else {
				sum.Sub(sum, term)
			}
			pow.Mul(pow, x2)
		}
		return sum
	}
	a := new(big.Float).SetPrec(refPrec).Mul(big.NewFloat(16), atanInv(5))
	b := new(big.Float).SetPrec(refPrec).Mul(big.NewFloat(4), atanInv(239))
	return a.Sub(a, b)
}()

// refExp is e^x for x ≥ 0 by its Taylor series, every term positive.
func refExp(x *big.Float) *big.Float {
	sum := new(big.Float).SetPrec(refPrec).SetInt64(1)
	term := new(big.Float).SetPrec(refPrec).SetInt64(1)
	for n := int64(1); ; n++ {
		term.Mul(term, x)
		term.Quo(term, new(big.Float).SetInt64(n))
		if term.Sign() == 0 || sum.MantExp(nil)-term.MantExp(nil) > refPrec+8 {
			return sum
		}
		sum.Add(sum, term)
	}
}

// refPhi is Φ(z) for finite z at refPrec bits, the long way:
// Φ(z) = ½ ± φ(|z|)·Σ_{n≥0} |z|^(2n+1)/(2n+1)!!, with
// φ(a) = 1/(e^(a²/2)·√(2π)). It shares no code with the kernel.
func refPhi(z float64) *big.Float {
	a := new(big.Float).SetPrec(refPrec).SetFloat64(math.Abs(z))
	a2 := new(big.Float).SetPrec(refPrec).Mul(a, a)
	sum := new(big.Float).SetPrec(refPrec)
	term := new(big.Float).SetPrec(refPrec).Set(a)
	for n := int64(1); term.Sign() != 0; n++ {
		sum.Add(sum, term)
		if sum.MantExp(nil)-term.MantExp(nil) > refPrec+8 {
			break
		}
		term.Mul(term, a2)
		term.Quo(term, new(big.Float).SetInt64(2*n+1))
	}
	half := new(big.Float).SetPrec(refPrec).Quo(a2, big.NewFloat(2))
	den := refExp(half)
	twoPi := new(big.Float).SetPrec(refPrec).Mul(refPi, big.NewFloat(2))
	den.Mul(den, twoPi.Sqrt(twoPi))
	p := sum.Quo(sum, den)
	out := new(big.Float).SetPrec(refPrec).SetFloat64(0.5)
	if z < 0 {
		return out.Sub(out, p)
	}
	return out.Add(out, p)
}

// TestNormalCDFReference holds the kernel to a 300-bit Φ: within 2^-53
// at seeded points across [−9, 9] (dense in [−3, 3], where Φ is far
// from 0 and 1), at both edges of every table cell, around the cut-off
// ±6√2, at ±0; and exact at ±Inf and NaN.
func TestNormalCDFReference(t *testing.T) {
	if f, _ := refPi.Float64(); f != math.Pi {
		t.Fatalf("reference π rounds to %v, want math.Pi", f)
	}
	inv := new(big.Float).SetPrec(refPrec).Mul(refPi, big.NewFloat(2))
	inv.Quo(big.NewFloat(1), inv.Sqrt(inv))
	hi, _ := inv.Float64()
	lo, _ := inv.Sub(inv, big.NewFloat(hi)).Float64()
	if hi != invSqrt2Pi.hi || lo != invSqrt2Pi.lo {
		t.Fatalf("1/√(2π) = %v + %v, the kernel uses %v + %v", hi, lo, invSqrt2Pi.hi, invSqrt2Pi.lo)
	}
	var zs []float64
	rnd := simtime.NewRand(1, "kde-normal-reference")
	for range 1500 {
		zs = append(zs, 18*rnd.Float64()-9)
	}
	for range 1500 {
		zs = append(zs, 6*rnd.Float64()-3)
	}
	for i := 0; i <= cdfCells; i++ {
		e := float64(i) / cellsPerUnit
		for _, z := range []float64{e, math.Nextafter(e, 0), math.Nextafter(e, 10)} {
			zs = append(zs, z, -z)
		}
	}
	for _, z := range []float64{cdfLimit, math.Nextafter(cdfLimit, 0), math.Nextafter(cdfLimit, 10), 0, math.Copysign(0, -1)} {
		zs = append(zs, z, -z)
	}

	ulp := new(big.Float).SetMantExp(big.NewFloat(1), -53)
	diff := new(big.Float).SetPrec(refPrec)
	worst, worstZ, rounded := 0.0, 0.0, 0
	for _, z := range zs {
		got, ref := NormalCDF(z), refPhi(z)
		if f, _ := ref.Float64(); f == got {
			rounded++
		}
		diff.Sub(new(big.Float).SetPrec(refPrec).SetFloat64(got), ref)
		diff.Abs(diff)
		if diff.Cmp(ulp) > 0 {
			t.Errorf("NormalCDF(%v) = %v, off the 300-bit Φ by %v > 2^-53", z, got, diff)
		}
		if d, _ := diff.Float64(); d > worst {
			worst, worstZ = d, z
		}
	}
	t.Logf("%d points, %d correctly rounded, worst error %.3g·2^-53 at z = %v", len(zs), rounded, worst/0x1p-53, worstZ)

	if got := NormalCDF(math.Inf(1)); got != 1 {
		t.Errorf("NormalCDF(+Inf) = %v, want 1", got)
	}
	if got := NormalCDF(math.Inf(-1)); got != 0 {
		t.Errorf("NormalCDF(-Inf) = %v, want 0", got)
	}
	if got := NormalCDF(math.NaN()); !math.IsNaN(got) {
		t.Errorf("NormalCDF(NaN) = %v, want NaN", got)
	}
}

// TestNormalCDFMatchesErf holds the kernel within 2^-53 of the form it
// replaced, 0.5*(1+math.Erf(z/√2)), on a million seeded points.
func TestNormalCDFMatchesErf(t *testing.T) {
	rnd := simtime.NewRand(2, "kde-normal-erf")
	same := 0
	const n = 1_000_000
	for range n {
		z := 18*rnd.Float64() - 9
		got, want := NormalCDF(z), 0.5*(1+math.Erf(z/math.Sqrt2))
		if math.Abs(got-want) > 0x1p-53 {
			t.Fatalf("NormalCDF(%v) = %v, math.Erf form %v: differ by %.3g·2^-53", z, got, want, math.Abs(got-want)/0x1p-53)
		}
		if got == want {
			same++
		}
	}
	t.Logf("%d of %d points bit-identical to the math.Erf form", same, n)
}
