package simtime

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestLazySourceMatchesMathRand holds the lazily seeded source to
// math/rand's own generator, draw for draw: seeds at the normalization
// edges (0, negatives, multiples of 2^31-1, ±1<<62, the int64 extremes)
// plus 300 spread over the int64 range, each through 3 000 rounds of
// Uint64, Int63, Float64, NormFloat64 and Intn — far past the first 607
// draws, where every register word has been touched — and then re-seeded
// mid-stream.
func TestLazySourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 2, m, -m, 2 * m, -2 * m, m - 1, m + 1, 89482311,
		1 << 62, -1 << 62, math.MaxInt64, math.MinInt64}
	spread := rand.New(rand.NewSource(20091))
	for range 300 {
		seeds = append(seeds, int64(spread.Uint64()))
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		var src lazySource
		src.Seed(seed)
		got := rand.New(&src)
		for i := range 3000 {
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d round %d: Uint64 %d, math/rand %d", seed, i, a, b)
			}
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d round %d: Int63 %d, math/rand %d", seed, i, a, b)
			}
			if a, b := got.Float64(), want.Float64(); a != b {
				t.Fatalf("seed %d round %d: Float64 %v, math/rand %v", seed, i, a, b)
			}
			if a, b := got.NormFloat64(), want.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d round %d: NormFloat64 %v, math/rand %v", seed, i, a, b)
			}
			if a, b := got.Intn(i+1), want.Intn(i+1); a != b {
				t.Fatalf("seed %d round %d: Intn %d, math/rand %d", seed, i, a, b)
			}
		}
		got.Seed(^seed)
		want.Seed(^seed)
		for i := range 1000 {
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d re-seeded round %d: Uint64 %d, math/rand %d", ^seed, i, a, b)
			}
		}
	}
}

// TestNewRandStream pins NewRand to the construction it replaced.
func TestNewRandStream(t *testing.T) {
	for _, label := range []string{"exec", "sampler/vol-V1/readTime", ""} {
		for _, seed := range []int64{0, 1, 42, -7} {
			h := uint64(seed)
			for _, c := range label {
				h ^= uint64(c)
				h *= 1099511628211
			}
			want := rand.New(rand.NewSource(int64(h)))
			got := NewRand(seed, label)
			for i := range 2000 {
				if a, b := got.NormFloat64(), want.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("NewRand(%d, %q) draw %d: %v, want %v", seed, label, i, a, b)
				}
			}
		}
	}
}

// TestNewRandAllocs bounds one monitoring series' noise stream — the
// seed plus 80 normals — to two allocations, the Rand and math/rand's
// wrapper around it: the outputs it keeps fit its inline buffer, and the
// buffer stays well under the 4.9 KB of a full 607-word register.
func TestNewRandAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(200, func() {
		r := NewRand(1, "sampler/vol-V1/readTime")
		for range 80 {
			r.NormFloat64()
		}
	})
	if allocs > 2 {
		t.Fatalf("NewRand plus 80 normals: %v allocs, want <= 2", allocs)
	}
	if size := unsafe.Sizeof(Rand{}); size > 2048 {
		t.Fatalf("Rand is %d bytes, want <= 2048", size)
	}
}

// BenchmarkNewRandNormals is one monitoring series' noise stream: seed it
// and draw a day of 5-minute samples' worth of normals.
func BenchmarkNewRandNormals(b *testing.B) {
	for b.Loop() {
		r := NewRand(1, "sampler/vol-V1/readTime")
		for range 80 {
			r.NormFloat64()
		}
	}
}
