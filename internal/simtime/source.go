package simtime

import "math/rand"

// lazySource is math/rand's generator — the additive lagged Fibonacci
// source rand.NewSource returns — reproduced bit for bit, with lazy
// seeding. Seeding fills a 607-word register from 1 841 steps of a Lehmer
// sequence, and every simulated monitoring series seeds its own stream
// to draw a few dozen numbers per chunk; lazySource computes a register
// word only when a draw first reads it, jumping the sequence straight to
// that word's three steps (x_k = A^k · x_0 mod M).
type lazySource struct {
	tap, feed int
	x0        uint64 // the normalized seed: the Lehmer sequence's x_0
	// drawn counts draws up to rngLen. Draw n (1-based) reads its feed
	// word unseeded while n <= rngLen and its tap word while n <= rngTap:
	// each index is fed once per rngLen draws, and the tap reads the word
	// fed rngTap draws earlier.
	drawn int
	vec   [rngLen]uint64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	lehmerM = 1<<31 - 1 // the seeding sequence's modulus
	lehmerA = 48271     // and multiplier
	// lehmerWarm is how many steps seeding discards before word 0.
	lehmerWarm = 20
)

var (
	// lehmerJump[i] holds A^k mod M for the three steps k that make
	// register word i: 21+3i, 22+3i and 23+3i.
	lehmerJump [rngLen][3]uint64
	// rngCooked[i] is XORed into register word i by seeding.
	rngCooked [rngLen]uint64
)

func init() {
	k := uint64(1)
	for range lehmerWarm {
		k = k * lehmerA % lehmerM
	}
	for i := range lehmerJump {
		for j := range lehmerJump[i] {
			k = k * lehmerA % lehmerM
			lehmerJump[i][j] = k
		}
	}

	// Recover rngCooked from seed 1's first rngLen outputs. The outputs
	// continue y[n] = y[n-rngLen] + y[n-rngTap] from the seeded register,
	// so, walking back, reg[n] = y[n-rngLen] = y[n] - y[n-rngTap], where a
	// y at or before 0 is itself a register word solved at n+rngLen-rngTap.
	// Draw n reads reg[n] from index feed(n), the word seeding left there.
	src := rand.NewSource(1).(rand.Source64)
	var y, reg [rngLen + 1]uint64
	for n := 1; n <= rngLen; n++ {
		y[n] = src.Uint64()
	}
	for n := rngLen; n >= 1; n-- {
		if n > rngTap {
			reg[n] = y[n] - y[n-rngTap]
		} else {
			reg[n] = y[n] - reg[n+rngLen-rngTap]
		}
	}
	for n := 1; n <= rngLen; n++ {
		i := (2*rngLen - rngTap - n) % rngLen
		rngCooked[i] = reg[n] ^ lehmerWord(1, i)
	}
}

// lehmerWord is register word i before the cooked XOR, for the sequence
// starting at x0.
func lehmerWord(x0 uint64, i int) uint64 {
	j := &lehmerJump[i]
	return (j[0]*x0%lehmerM)<<40 ^ (j[1]*x0%lehmerM)<<20 ^ j[2]*x0%lehmerM
}

// Seed resets the generator to rand.NewSource(seed)'s initial state.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.drawn = 0, rngLen-rngTap, 0
}

// Uint64 returns the next 64 bits of the stream.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < rngLen {
		s.drawn++
		s.vec[s.feed] = lehmerWord(s.x0, s.feed) ^ rngCooked[s.feed]
		if s.drawn <= rngTap {
			s.vec[s.tap] = lehmerWord(s.x0, s.tap) ^ rngCooked[s.tap]
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns a non-negative 63-bit integer.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
