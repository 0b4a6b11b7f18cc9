package simtime

import "math/rand"

// lazySource is math/rand's generator — the additive lagged Fibonacci
// source rand.NewSource returns — reproduced bit for bit, with lazy
// seeding. Seeding fills a 607-word register from 1 841 steps of a Lehmer
// sequence, and every simulated monitoring series seeds its own stream
// to draw a few dozen numbers per chunk; lazySource computes a register
// word only when a draw first reads it, jumping the sequence straight to
// that word's three steps (x_k = A^k · x_0 mod M).
//
// It keeps the outputs it has drawn, not the register: draw n is
// y[n] = y[n-rngLen] + y[n-rngTap], where a y at or before 0 is a seeded
// register word, so only the last rngLen outputs are ever read again.
// They start in an inline buffer sized for a typical series' stream; a
// stream that outgrows it moves to a full rngLen-word buffer once.
type lazySource struct {
	x0 uint64 // the normalized seed: the Lehmer sequence's x_0
	n  int    // draws since seeding
	// y holds the outputs drawn so far in draw order until rngLen of
	// them exist, then as a ring: output k sits at y[(k-1) % rngLen].
	y   []uint64
	pos int // where the next output goes: n % rngLen
	buf [rngInline]uint64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// rngInline is the inline output buffer, in words. A monitoring
	// series draws about one word per 5-minute sample; the simulated
	// fleet's series draw 64 to 127 words but for a few.
	rngInline = 128
	lehmerM   = 1<<31 - 1 // the seeding sequence's modulus
	lehmerA   = 48271     // and multiplier
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
	s.n, s.pos = 0, 0
	if s.y == nil {
		s.y = s.buf[:0]
	}
	s.y = s.y[:0]
}

// seeded is register word i as seeding leaves it.
func (s *lazySource) seeded(i int) uint64 { return lehmerWord(s.x0, i) ^ rngCooked[i] }

// Uint64 returns the next 64 bits of the stream.
func (s *lazySource) Uint64() uint64 {
	s.n++
	n := s.n
	// The feed term y[n-rngLen] is the register word math/rand's feed
	// index reaches on draw n, until the outputs wrap round to it.
	var feed uint64
	if n <= rngLen {
		feed = s.seeded((2*rngLen - rngTap - n) % rngLen)
	} else {
		feed = s.y[s.pos]
	}
	var tap uint64
	if n <= rngTap {
		tap = s.seeded(rngLen - n)
	} else {
		j := s.pos - rngTap
		if j < 0 {
			j += rngLen
		}
		tap = s.y[j]
	}
	x := feed + tap
	if n <= rngLen {
		if len(s.y) == cap(s.y) {
			s.y = append(make([]uint64, 0, rngLen), s.y...)
		}
		s.y = append(s.y, x)
	} else {
		s.y[s.pos] = x
	}
	if s.pos++; s.pos == rngLen {
		s.pos = 0
	}
	return x
}

// Int63 returns a non-negative 63-bit integer.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
