package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"diads/internal/simtime"
)

// FuzzStoreAppend is the store's boundary fuzzer. From its input it draws
// a segment size, non-decreasing float64 timestamps — on a grid, repeated,
// jittered, jumping, a last-place step, or raw bits, ±0 and ±Inf included
// — and values, appends them in runs of drawn length and truncates at
// drawn horizons. After every truncation and at the end, every read must
// equal a plain []Sample model bit for bit (assertReadsBack), every
// dropped sample must lie below the horizon that dropped it, and no run
// in time order may be refused.
//
// The seeds are timePatterns' shapes, written sample by sample as raw
// timestamps at the default segment size and at 7, and three series of
// signed zeros and infinities.
//
//	go test -run='^$' -fuzz='^FuzzStoreAppend$' -fuzztime=20s -fuzzminimizetime=1s ./internal/metrics
func FuzzStoreAppend(f *testing.F) {
	for p := range timePatterns {
		tl := newTimeline(rand.New(rand.NewSource(int64(p))), p, 3*segmentSize)
		for _, size := range []int{segmentSize, 7} {
			f.Add(fuzzSeed(size, tl.ts))
		}
	}
	// Times no grid holds: -0 (t0 + 0·dt is +0), and steps that overflow
	// to +Inf or start from -Inf (0·Inf is NaN, so sample 0 would move).
	inf := simtime.Time(math.Inf(1))
	f.Add(fuzzSeed(segmentSize, []simtime.Time{simtime.Time(math.Copysign(0, -1)), 0, 0, 1e308, 1.5e308, inf, inf, inf}))
	f.Add(fuzzSeed(segmentSize, []simtime.Time{-inf, -inf, -inf, 5, 10, 15, 20, inf}))
	f.Add(fuzzSeed(segmentSize, []simtime.Time{7, inf, inf, inf, inf, inf, inf, inf, inf, inf}))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		s := NewStore()
		s.SetSegmentSize(1 + int(in.byte())%80)
		step := math.Abs(in.float())
		if math.IsNaN(step) || math.IsInf(step, 0) {
			step = 300
		}
		prev := in.float()
		if math.IsNaN(prev) {
			prev = 0
		}
		var model, run []Sample
		flush := func() {
			if err := s.AppendRun("vol-V1", VolReadIO, run); err != nil {
				t.Fatalf("run of %d samples in time order refused: %v", len(run), err)
			}
			model, run = append(model, run...), run[:0]
		}
		for len(in) > 0 && len(model)+len(run) < 1024 {
			op := in.byte()
			ts := prev
			switch op & 7 {
			case 1, 2: // on the grid
				ts = prev + step
			case 3: // jittered: between half a step and one and a half
				ts = prev + step*(0.5+float64(in.byte())/256)
			case 4: // a jump of up to 256 steps
				ts = prev + step*float64(1+int(in.byte()))
			case 5: // raw bits, where they keep time in order
				if raw := in.float(); raw >= prev {
					ts = raw
				}
			case 6:
				ts = prev + 0.1
			case 7: // the next float up
				ts = math.Nextafter(prev, math.Inf(1))
			} // 0: the time repeats
			v := in.float()
			if math.IsNaN(v) {
				v = 0 // sums of two NaN payloads may keep either
			}
			run = append(run, Sample{T: simtime.Time(ts), V: v})
			prev = ts
			if op&8 != 0 {
				flush()
			}
			if op&0x70 == 0x70 {
				flush()
				// A sample's time, or raw bits (NaN included) with the top bit set.
				horizon := simtime.Time(in.float())
				if op&0x80 == 0 && len(model) > 0 {
					horizon = model[int(in.byte())*(len(model)-1)/255].T
				}
				before := s.Dropped()
				n := s.Truncate(horizon)
				if s.Dropped() != before+n {
					t.Fatalf("Truncate(%v) reported %d dropped, Dropped moved %d -> %d", horizon, n, before, s.Dropped())
				}
				for _, smp := range model[before:s.Dropped()] {
					if !(smp.T < horizon) {
						t.Fatalf("Truncate(%v) dropped a sample at %v", horizon, smp.T)
					}
				}
				assertReadsBack(t, s, "vol-V1", VolReadIO, model, fuzzWindows(model))
			}
		}
		flush()
		if s.Len() != len(model)-s.Dropped() {
			t.Fatalf("Len = %d, want %d appended less %d dropped", s.Len(), len(model), s.Dropped())
		}
		assertReadsBack(t, s, "vol-V1", VolReadIO, model, fuzzWindows(model))
	})
}

// fuzzInput is the fuzzer's byte stream; once it runs out, every draw is
// zero.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) float() float64 {
	var b [8]byte
	for i := range b {
		b[i] = in.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// fuzzSeed writes a series as FuzzStoreAppend input: segment size size,
// each time as raw bits with an index-derived value, a run closed every
// 13 samples and a truncation at the middle sample's time two thirds in.
func fuzzSeed(size int, ts []simtime.Time) []byte {
	put := func(b []byte, v float64) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	b := []byte{byte(size - 1)}
	b = put(b, 300)
	b = put(b, math.Inf(-1))
	for i, t := range ts {
		op := byte(5)
		switch {
		case i == 2*len(ts)/3:
			op |= 0x70
		case i%13 == 12:
			op |= 8
		}
		b = append(b, op)
		b = put(b, float64(t))
		b = put(b, math.Exp(float64(i%17))*math.Sqrt(float64(i+1)))
		if op&0x70 == 0x70 {
			b = put(b, 0)
			b = append(b, 128)
		}
	}
	return b
}

// fuzzWindows are the windows FuzzStoreAppend reads the model over: the
// whole time line, and from a sample at a time through a few later ones
// — ending on a sample's time, halfway to it, and zero-length — in time
// order, so WindowMeans steps its cursors as well as seeking.
func fuzzWindows(smps []Sample) []simtime.Interval {
	inf := simtime.Time(math.Inf(1))
	out := []simtime.Interval{{Start: -inf, End: inf}}
	for i := 0; i < len(smps); i += 1 + len(smps)/64 {
		a, b := smps[i].T, smps[min(i+1+i%9, len(smps)-1)].T
		out = append(out, simtime.Interval{Start: a, End: b}, simtime.Interval{Start: a, End: a})
		if mid := a + (b-a)/2; mid >= a && mid <= b {
			out = append(out, simtime.Interval{Start: mid, End: b}, simtime.Interval{Start: a, End: mid})
		}
	}
	return out
}
