package simtime

import (
	"math"
	"math/rand"
)

// Rand is a deterministic random source. Every stochastic component of the
// simulation derives its own Rand from a scenario seed plus a stable
// component label, so adding a component never perturbs the random streams
// of existing ones.
type Rand struct {
	rng *rand.Rand
	src lazySource
}

// NewRand returns a Rand seeded from seed and a stable component label.
// Its stream is rand.New(rand.NewSource(s)) for the mixed seed s, bit for
// bit; seeding costs only the register words the draws reach.
func NewRand(seed int64, label string) *Rand {
	h := uint64(seed)
	for _, c := range label {
		// FNV-1a style mixing keeps streams independent across labels.
		h ^= uint64(c)
		h *= 1099511628211
	}
	r := &Rand{}
	r.src.Seed(int64(h))
	r.rng = rand.New(&r.src)
	return r
}

// Float64 returns a uniform sample in [0, 1).
func (r *Rand) Float64() float64 { return r.rng.Float64() }

// NormFloat64 returns a standard normal sample.
func (r *Rand) NormFloat64() float64 { return r.rng.NormFloat64() }

// Intn returns a uniform sample in [0, n).
func (r *Rand) Intn(n int) int { return r.rng.Intn(n) }

// Gaussian returns a normal sample with the given mean and standard
// deviation.
func (r *Rand) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.rng.NormFloat64()
}

// LogNormalFactor returns a multiplicative noise factor with median 1 whose
// log is normal with standard deviation sigma. It models the heavy-tailed
// jitter of real response-time measurements.
func (r *Rand) LogNormalFactor(sigma float64) float64 {
	return math.Exp(sigma * r.rng.NormFloat64())
}

// Jitter returns v scaled by a log-normal factor with the given sigma.
func (r *Rand) Jitter(v, sigma float64) float64 {
	return v * r.LogNormalFactor(sigma)
}
