package metrics

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"diads/internal/simtime"
)

// TestTruncateDropsWholeSegments pins the segment granularity: a
// truncation horizon inside a segment frees only the segments fully
// below it, and the retained sample set is exactly the suffix at or
// above the first surviving segment.
func TestTruncateDropsWholeSegments(t *testing.T) {
	s := NewStore()
	n := 3*segmentSize + 17
	fill(s, "vol-V1", n, func(i int) float64 { return float64(i) })

	// Horizon in the middle of the second segment: only segment 0 drops.
	horizon := simtime.Time((segmentSize + segmentSize/2) * 300)
	dropped := s.Truncate(horizon)
	if dropped != segmentSize {
		t.Fatalf("Truncate dropped %d samples, want %d (one whole segment)", dropped, segmentSize)
	}
	if got := s.Len(); got != n-segmentSize {
		t.Fatalf("Len = %d after truncation, want %d", got, n-segmentSize)
	}
	if got := s.Dropped(); got != segmentSize {
		t.Fatalf("Dropped = %d, want %d", got, segmentSize)
	}
	ser := s.Series("vol-V1", VolReadIO)
	if len(ser) != n-segmentSize || ser[0].T != simtime.Time(segmentSize*300) {
		t.Fatalf("retained series starts at %v (%d samples), want %v (%d)",
			ser[0].T, len(ser), simtime.Time(segmentSize*300), n-segmentSize)
	}
	// Re-truncating at the same horizon is a no-op.
	if again := s.Truncate(horizon); again != 0 {
		t.Fatalf("second Truncate dropped %d, want 0", again)
	}
}

// TestTruncateCursorsSurvive pins the Since contract across truncation:
// cursors are absolute, so a cursor taken before Truncate resumes at the
// first retained sample and never replays or skips live samples.
func TestTruncateCursorsSurvive(t *testing.T) {
	s := NewStore()
	fill(s, "vol-V1", segmentSize, func(i int) float64 { return float64(i) })
	firstHalf, cursor := s.Since("vol-V1", VolReadIO, 0)
	if len(firstHalf) != segmentSize || cursor != segmentSize {
		t.Fatalf("Since(0) = %d samples, cursor %d", len(firstHalf), cursor)
	}

	for i := segmentSize; i < 3*segmentSize; i++ {
		s.MustAppend("vol-V1", VolReadIO, Sample{T: simtime.Time(i * 300), V: float64(i)})
	}
	s.Truncate(simtime.Time(2 * segmentSize * 300)) // drops segments 0 and 1

	// The pre-truncation cursor points into the dropped prefix; it must
	// resume at the first retained sample.
	tail, next := s.Since("vol-V1", VolReadIO, cursor)
	if len(tail) != segmentSize || tail[0].T != simtime.Time(2*segmentSize*300) {
		t.Fatalf("post-truncation Since resumed at %v with %d samples, want %v with %d",
			tail[0].T, len(tail), simtime.Time(2*segmentSize*300), segmentSize)
	}
	if next != 3*segmentSize {
		t.Fatalf("cursor advanced to %d, want %d", next, 3*segmentSize)
	}
	if more, _ := s.Since("vol-V1", VolReadIO, next); len(more) != 0 {
		t.Fatalf("drained cursor returned %d samples, want 0", len(more))
	}

	// Appends continue seamlessly after truncation.
	s.MustAppend("vol-V1", VolReadIO, Sample{T: simtime.Time(3 * segmentSize * 300), V: 1})
	if latest, ok := s.Latest("vol-V1", VolReadIO); !ok || latest.T != simtime.Time(3*segmentSize*300) {
		t.Fatalf("Latest after post-truncation append = %v/%v", latest, ok)
	}
}

// TestTruncateFloatExactProperty is the retention contract's property
// test: for random series and random truncation points, WindowMean and
// WindowStats over any window at or above the horizon are BIT-identical
// before and after Truncate. Exactness (not approximate equality) is
// what lets the fleet run retention under its byte-determinism
// invariant, so the comparison is == on every float, not a tolerance.
//
// The batched reader rides the same trials: on both stores WindowMeans
// must equal per-call WindowMean bit for bit over windows of every shape
// (assertWindowMeansBitwise), and above the horizon the truncated store's
// batch must equal its untruncated twin's.
//
// So does the batched writer: a third store, filled by AppendRun in runs
// of random length that cross segment boundaries — each preceded, at
// random, by an out-of-order attempt that must be refused without a
// trace — and truncated like cut, must read back exactly like cut.
//
// WindowMeans carries a cursor per window end across its batch, so the
// random windows (mostly re-seeks) are read again in the orders that
// make it step: sorted by start, and in Module DA's shape (orderedReads).
// Every trial runs at segment sizes from 1 — each sample its own
// segment, so every step crosses a boundary — to larger than the series.
//
// Each trial's series takes one of timePatterns' timestamp shapes, so
// samples leave the store's time grid at every position in a segment.
// Besides the stores agreeing with each other, every store must read
// back the test's own samples and running sums bit for bit
// (assertReadsBack): Series, Latest, Since, WindowStats and WindowMeans.
func TestTruncateFloatExactProperty(t *testing.T) {
	for _, size := range []int{1, 3, 7, segmentSize, 100, 1000} {
		t.Run("seg="+strconv.Itoa(size), func(t *testing.T) { truncateFloatExactTrials(t, size) })
	}
}

// timePatterns are the timestamp shapes a property trial's series takes:
// the rig's 300 s grid; the fleet's cut final window (22 980 s on a grid
// from 19 500 s, the grid resumed from there), here recurring every 12th
// sample; the ingest benchmark's posts (8 samples 300 s apart, then a
// 7 900 s jump); repeated T; a 0.1 s step, summed, which a grid from a
// later sample's time reproduces only for a while; and uniform jitter.
// next returns sample i's time given sample i-1's; step is the nominal
// spacing windows past the series' end continue at.
var timePatterns = []struct {
	name string
	step simtime.Duration
	next func(rng *rand.Rand, i int, prev simtime.Time) simtime.Time
}{
	{"grid", 300, func(_ *rand.Rand, i int, _ simtime.Time) simtime.Time {
		return simtime.Time(300 * i)
	}},
	{"cut final window", 300, func(_ *rand.Rand, i int, _ simtime.Time) simtime.Time {
		return simtime.Time(19_500 + 300*i - 120*(i/12))
	}},
	{"post gaps", 1250, func(_ *rand.Rand, i int, _ simtime.Time) simtime.Time {
		return simtime.Time(10_000*(i/8) + 300*(i%8))
	}},
	{"repeated T", 150, func(rng *rand.Rand, i int, prev simtime.Time) simtime.Time {
		return prev + simtime.Time(300*rng.Intn(2))
	}},
	{"0.1 s step", 0.1, func(_ *rand.Rand, i int, prev simtime.Time) simtime.Time {
		if i == 0 {
			return 0
		}
		return prev + 0.1
	}},
	{"jitter", 300, func(rng *rand.Rand, i int, _ simtime.Time) simtime.Time {
		return simtime.Time(300*i) + simtime.Time(200*rng.Float64()-100)
	}},
}

// timeline is one trial's timestamps: at(i) is sample i's time, and past
// the last one the series goes on at the pattern's nominal step.
type timeline struct {
	ts   []simtime.Time
	step simtime.Duration
}

// newTimeline draws n timestamps of pattern p.
func newTimeline(rng *rand.Rand, p, n int) timeline {
	tl := timeline{ts: make([]simtime.Time, n), step: timePatterns[p].step}
	prev := simtime.Time(0)
	for i := range tl.ts {
		prev = timePatterns[p].next(rng, i, prev)
		tl.ts[i] = prev
	}
	return tl
}

func (tl timeline) at(i int) simtime.Time {
	if i < len(tl.ts) {
		return tl.ts[i]
	}
	return tl.ts[len(tl.ts)-1].Add(simtime.Duration(i-len(tl.ts)+1) * tl.step)
}

func truncateFloatExactTrials(t *testing.T, size int) {
	rng := rand.New(rand.NewSource(20260808))
	// Window orders draw from their own stream, so the trials' series,
	// horizons and probes are the same at every segment size.
	order := rand.New(rand.NewSource(20261017))
	const trials = 40
	appendRuns := func(s *Store, smps []Sample) {
		t.Helper()
		for len(smps) > 0 {
			run := smps[:min(len(smps), 1+rng.Intn(2*size))]
			smps = smps[len(run):]
			if len(run) > 1 && rng.Intn(3) == 0 {
				i := 1 + rng.Intn(len(run)-1)
				// Swapping two samples of one time leaves the run in order.
				if run[i-1].T != run[i].T {
					bad := slices.Clone(run)
					bad[i-1], bad[i] = bad[i], bad[i-1]
					before := s.Len()
					if err := s.AppendRun("vol-V1", VolReadIO, bad); err == nil || s.Len() != before {
						t.Fatalf("out-of-order run: err %v, store %d -> %d samples", err, before, s.Len())
					}
				}
			}
			if err := s.AppendRun("vol-V1", VolReadIO, run); err != nil {
				t.Fatal(err)
			}
		}
	}
	for trial := 0; trial < trials; trial++ {
		pattern := trial % len(timePatterns)
		n := 50 + rng.Intn(4*segmentSize)
		// The trial's n samples, then the 100 appended after truncation.
		tl := newTimeline(rng, pattern, n+100)
		ref := NewStore()  // never truncated
		cut := NewStore()  // truncated mid-stream, possibly repeatedly
		runs := NewStore() // cut, filled by AppendRun
		for _, st := range []*Store{ref, cut, runs} {
			st.SetSegmentSize(size)
		}
		vals := make([]float64, n)
		smps := make([]Sample, n)
		for i := range vals {
			// Mix magnitudes so cancellation would be visible if the
			// prefix-sum anchoring were wrong.
			vals[i] = math.Exp(rng.Float64()*8) * rng.Float64()
		}
		for i, v := range vals {
			smp := Sample{T: tl.at(i), V: v}
			ref.MustAppend("vol-V1", VolReadIO, smp)
			cut.MustAppend("vol-V1", VolReadIO, smp)
			smps[i] = smp
		}
		appendRuns(runs, smps)
		hIdx := rng.Intn(n)
		horizon := tl.at(hIdx)
		cut.Truncate(horizon)
		runs.Truncate(horizon)

		// Probe random windows that start at or above the horizon,
		// including degenerate and over-long ones.
		var probes []simtime.Interval
		for probe := 0; probe < 30; probe++ {
			start := horizon.Add(simtime.Duration(rng.Intn(n)) * tl.step / 2)
			end := start.Add(simtime.Duration(rng.Intn(n)) * tl.step)
			iv := simtime.NewInterval(start, end)
			probes = append(probes, iv)
			want := ref.WindowStats("vol-V1", VolReadIO, iv)
			got := cut.WindowStats("vol-V1", VolReadIO, iv)
			if want.N != got.N || want.Sum != got.Sum || want.Mean != got.Mean {
				t.Fatalf("trial %d (%s) horizon %v window %v: stats diverged after Truncate:\n  ref %+v\n  cut %+v",
					trial, timePatterns[pattern].name, horizon, iv, want, got)
			}
			wm, wn := ref.WindowMean("vol-V1", VolReadIO, iv)
			gm, gn := cut.WindowMean("vol-V1", VolReadIO, iv)
			if wm != gm || wn != gn {
				t.Fatalf("trial %d window %v: WindowMean diverged: ref %.17g/%d cut %.17g/%d",
					trial, iv, wm, wn, gm, gn)
			}
			if rs := runs.WindowStats("vol-V1", VolReadIO, iv); rs != got {
				t.Fatalf("trial %d window %v: AppendRun store %+v, per-sample Append %+v", trial, iv, rs, got)
			}
		}
		if a, b := runs.Series("vol-V1", VolReadIO), cut.Series("vol-V1", VolReadIO); !slices.Equal(a, b) || runs.Dropped() != cut.Dropped() {
			t.Fatalf("trial %d: AppendRun store holds %d samples (dropped %d), per-sample Append %d (dropped %d)",
				trial, len(a), runs.Dropped(), len(b), cut.Dropped())
		}

		// Segment edges: a window from the first retained sample (its
		// opening prefix sum is, after truncation, the head segment's
		// first checkpoint), and one that ends exactly where a segment
		// of the truncated store begins (its closing prefix sum is that
		// segment's first checkpoint), any retained one, read off the
		// store.
		first := cut.Dropped()
		edges := [][2]int{{first, first + 1 + rng.Intn(n-first)}}
		if segs := cut.series[SeriesKey{Component: "vol-V1", Metric: VolReadIO}].segs; len(segs) > 1 {
			b := segs[1+rng.Intn(len(segs)-1)].start
			edges = append(edges, [2]int{first + rng.Intn(b-first), b})
		}
		var edgeWindows []simtime.Interval
		for _, e := range edges {
			edgeWindows = append(edgeWindows, simtime.NewInterval(tl.at(e[0]), tl.at(e[1])))
		}

		// Batched reads: every window shape, below the horizon included
		// (there the two stores legitimately differ, so each is checked
		// against its own per-call reader).
		windows := randomWindows(rng, tl, n, hIdx)
		if kept := assertWindowMeansBitwise(t, ref, "vol-V1", VolReadIO, windows); kept == 0 || kept == len(windows) {
			t.Fatalf("trial %d: %d of %d windows non-empty; the mix must cover both", trial, kept, len(windows))
		}
		assertWindowMeansBitwise(t, cut, "vol-V1", VolReadIO, windows)
		var above []simtime.Interval
		for _, iv := range windows {
			if iv.Start >= horizon {
				above = append(above, iv)
			}
		}
		want := ref.WindowMeans("vol-V1", VolReadIO, above, nil)
		got := cut.WindowMeans("vol-V1", VolReadIO, above, nil)
		if !sameBits(want, got) {
			t.Fatalf("trial %d horizon %v: WindowMeans above the horizon diverged after Truncate:\n  ref %v\n  cut %v",
				trial, horizon, want, got)
		}
		if rm := runs.WindowMeans("vol-V1", VolReadIO, windows, nil); !sameBits(rm, cut.WindowMeans("vol-V1", VolReadIO, windows, nil)) {
			t.Fatalf("trial %d: WindowMeans of the AppendRun store diverged from per-sample Append's", trial)
		}
		orderedReads(t, order, ref, cut, runs, windows, tl, n, horizon)
		reads := slices.Concat(probes, edgeWindows, windows)
		for _, st := range []*Store{ref, cut, runs} {
			assertReadsBack(t, st, "vol-V1", VolReadIO, smps, reads)
		}

		// Keep appending after truncation and re-check: the tail sum
		// must anchor future aggregates too.
		smps = smps[:n:n]
		for i := n; i < n+100; i++ {
			v := math.Exp(rng.Float64()*8) * rng.Float64()
			smp := Sample{T: tl.at(i), V: v}
			ref.MustAppend("vol-V1", VolReadIO, smp)
			cut.MustAppend("vol-V1", VolReadIO, smp)
			smps = append(smps, smp)
		}
		appendRuns(runs, smps[n:])
		iv := simtime.NewInterval(horizon, tl.at(n+100))
		wantSt := ref.WindowStats("vol-V1", VolReadIO, iv)
		gotSt := cut.WindowStats("vol-V1", VolReadIO, iv)
		if wantSt.N != gotSt.N || wantSt.Sum != gotSt.Sum || wantSt.Mean != gotSt.Mean {
			t.Fatalf("trial %d: post-truncation appends diverged:\n  ref %+v\n  cut %+v", trial, wantSt, gotSt)
		}
		if rs := runs.WindowStats("vol-V1", VolReadIO, iv); rs != gotSt {
			t.Fatalf("trial %d: post-truncation AppendRun diverged: %+v, per-sample Append %+v", trial, rs, gotSt)
		}
		later := randomWindows(rng, tl, n+100, hIdx)
		assertWindowMeansBitwise(t, cut, "vol-V1", VolReadIO, later)
		for _, st := range []*Store{ref, cut, runs} {
			assertReadsBack(t, st, "vol-V1", VolReadIO, smps, append(later, iv))
		}
	}
}

// randomWindows draws windows of every shape the batched reader must
// handle over the first n samples of tl: between two samples (empty),
// zero-length, with both ends exactly on sample timestamps (Start
// inclusive, End exclusive), long enough to span several segments,
// wholly or partly below the truncation horizon (sample hIdx's time),
// and past the end of the series.
func randomWindows(rng *rand.Rand, tl timeline, n, hIdx int) []simtime.Interval {
	horizon := tl.at(hIdx)
	span := func() simtime.Duration { return simtime.Duration(rng.Intn(n)) * tl.step }
	var out []simtime.Interval
	for i := 0; i < 40; i++ {
		a := rng.Intn(n)
		switch i % 8 {
		case 0: // strictly between two samples
			gap := tl.at(a + 1).Sub(tl.at(a))
			out = append(out, simtime.NewInterval(tl.at(a).Add(gap/4), tl.at(a).Add(3*gap/4)))
		case 1: // zero-length, on a sample
			out = append(out, simtime.NewInterval(tl.at(a), tl.at(a)))
		case 2: // exactly one sample, both ends on timestamps
			out = append(out, simtime.NewInterval(tl.at(a), tl.at(a+1)))
		case 3: // boundary-aligned, spanning segments
			out = append(out, simtime.NewInterval(tl.at(a), tl.at(a+segmentSize+rng.Intn(2*segmentSize))))
		case 4: // unaligned
			start := tl.at(a).Add(simtime.Duration(rng.Float64()) * tl.step)
			out = append(out, simtime.NewInterval(start, start.Add(span())))
		case 5: // wholly below the horizon
			b := rng.Intn(hIdx + 1)
			out = append(out, simtime.NewInterval(tl.at(b/2), tl.at(b)))
		case 6: // straddling the horizon
			out = append(out, simtime.NewInterval(horizon.Add(-span()), horizon.Add(span())))
		case 7: // past the end of the series
			out = append(out, simtime.NewInterval(tl.at(n+a), tl.at(n+2*a)))
		}
	}
	return out
}

// orderedReads reads the series in the orders WindowMeans' cursors step
// through rather than seek: the random windows sorted by start (ends
// then move both ways), and Module DA's shape — ReadWindow-padded runs
// in time order, overlapping, with a short run after a long one pulling
// the end back and an occasional gap of more than a segment. Each batch
// must equal per-call WindowStats on its own store bit for bit, above
// the horizon the truncated stores' batch must equal the untruncated
// twin's, and the AppendRun store must read exactly like cut.
func orderedReads(t *testing.T, rng *rand.Rand, ref, cut, runs *Store, random []simtime.Interval, tl timeline, n int, horizon simtime.Time) {
	t.Helper()
	sorted := slices.Clone(random)
	slices.SortStableFunc(sorted, func(a, b simtime.Interval) int { return cmp.Compare(a.Start, b.Start) })
	// DA's runs, in units of the series' step rather than the 300 s grid.
	scale := tl.step / 300
	var da []simtime.Interval
	for start := tl.at(0).Add(simtime.Duration(rng.Intn(600)) * scale); len(da) < 40; {
		dur := simtime.Duration(rng.Intn(n*30)) * scale
		da = append(da, ReadWindow(simtime.NewInterval(start, start.Add(dur))))
		step := simtime.Duration(rng.Intn(n*15)) * scale
		if rng.Intn(8) == 0 {
			step *= 8
		}
		start = start.Add(step)
	}
	shrinks := 0
	for i := 1; i < len(da); i++ {
		if da[i].End < da[i-1].End {
			shrinks++
		}
	}
	if shrinks == 0 {
		t.Fatalf("no DA window end moves backwards: %v", da)
	}
	for _, c := range []struct {
		name    string
		windows []simtime.Interval
	}{{"DA-shaped", da}, {"sorted by start", sorted}} {
		name, windows := c.name, c.windows
		for _, st := range []*Store{ref, cut, runs} {
			assertWindowMeansBitwise(t, st, "vol-V1", VolReadIO, windows)
		}
		above := slices.DeleteFunc(slices.Clone(windows), func(iv simtime.Interval) bool { return iv.Start < horizon })
		want := ref.WindowMeans("vol-V1", VolReadIO, above, nil)
		for _, st := range []*Store{cut, runs} {
			if got := st.WindowMeans("vol-V1", VolReadIO, above, nil); !sameBits(want, got) {
				t.Fatalf("%s windows above horizon %v: truncated store diverged from its untruncated twin:\n  ref %v\n  cut %v", name, horizon, want, got)
			}
		}
		if a, b := runs.WindowMeans("vol-V1", VolReadIO, windows, nil), cut.WindowMeans("vol-V1", VolReadIO, windows, nil); !sameBits(a, b) {
			t.Fatalf("%s windows: AppendRun store %v, per-sample Append %v", name, a, b)
		}
	}
}

// sameBits reports whether two float slices are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// assertWindowMeansBitwise checks one batched read against per-call
// WindowMean on the same store: same windows kept, same order, every
// mean bit-identical, and the values appended after whatever dst held.
// It returns the number of non-empty windows.
func assertWindowMeansBitwise(t *testing.T, s *Store, component string, metric Metric, windows []simtime.Interval) int {
	t.Helper()
	want := []float64{-1} // dst's prior contents must survive
	for _, iv := range windows {
		if mean, n := s.WindowMean(component, metric, iv); n > 0 {
			want = append(want, mean)
		}
	}
	got := s.WindowMeans(component, metric, windows, []float64{-1})
	if !sameBits(want, got) {
		t.Fatalf("WindowMeans diverged from per-call WindowMean over %d windows:\n  per-call %v\n  batched  %v",
			len(windows), want[1:], got[1:])
	}
	return len(got) - 1
}

// assertReadsBack checks a store's series against the samples appended
// to it, in order (smps), and running sums over them formed here, bit
// for bit: Series, Latest and Since return the retained suffix — the
// samples from Dropped on, all of which the store must hold — and
// WindowStats and WindowMeans over windows count and sum exactly the
// retained samples inside each, their sum the running sum before the
// window's end minus the one before its start. The store must hold this
// one series.
func assertReadsBack(t *testing.T, s *Store, component string, metric Metric, smps []Sample, windows []simtime.Interval) {
	t.Helper()
	dropped := s.Dropped()
	live := smps[dropped:]
	if got := s.Series(component, metric); !sameSamples(got, live) {
		t.Fatalf("Series holds %d samples, want the %d appended from %d on:\n  got  %v\n  want %v", len(got), len(live), dropped, got, live)
	}
	if got, ok := s.Latest(component, metric); ok != (len(live) > 0) || ok && !sameSamples([]Sample{got}, live[len(live)-1:]) {
		t.Fatalf("Latest = %v/%v with %d samples retained", got, ok, len(live))
	}
	for _, c := range []int{0, dropped - 1, dropped, (dropped + len(smps)) / 2, len(smps) - 1, len(smps)} {
		wantNext := len(smps)
		if len(smps) == 0 {
			wantNext = c // no series: the cursor stays
		}
		got, next := s.Since(component, metric, c)
		if want := smps[min(max(c, dropped), len(smps)):]; !sameSamples(got, want) || next != wantNext {
			t.Fatalf("Since(%d) = %d samples, cursor %d; want %d, cursor %d", c, len(got), next, len(want), wantNext)
		}
	}
	cum := make([]float64, len(smps)+1)
	for i, smp := range smps {
		cum[i+1] = cum[i] + smp.V
	}
	firstAt := func(t simtime.Time) int {
		return max(sort.Search(len(smps), func(i int) bool { return smps[i].T >= t }), dropped)
	}
	var means []float64
	for _, iv := range windows {
		var want Stats
		if lo, hi := firstAt(iv.Start), firstAt(iv.End); hi > lo {
			want.N, want.Sum = hi-lo, cum[hi]
			if lo > 0 {
				want.Sum -= cum[lo]
			}
			want.Mean = want.Sum / float64(want.N)
			means = append(means, want.Mean)
		}
		if got := s.WindowStats(component, metric, iv); got.N != want.N || !sameBits([]float64{got.Sum, got.Mean}, []float64{want.Sum, want.Mean}) {
			t.Fatalf("WindowStats over %v = %+v, running sums over the appended samples give %+v", iv, got, want)
		}
	}
	if got := s.WindowMeans(component, metric, windows, nil); !sameBits(got, means) {
		t.Fatalf("WindowMeans over %d windows = %v, running sums give %v", len(windows), got, means)
	}
}

// sameSamples reports whether two sample slices are bit-for-bit equal.
func sameSamples(a, b []Sample) bool {
	return slices.EqualFunc(a, b, func(x, y Sample) bool {
		return sameTime(x.T, y.T) && math.Float64bits(x.V) == math.Float64bits(y.V)
	})
}

// TestTruncateNoopVisitsNoSeries pins the O(1) fast path: a horizon that
// can free nothing returns before the series walk, so it allocates
// nothing and costs the same on a 10 000-series store as on a 10-series
// one.
func TestTruncateNoopVisitsNoSeries(t *testing.T) {
	build := func(series int) *Store {
		s := NewStore()
		for c := 0; c < series; c++ {
			comp := "vol-" + strconv.Itoa(c)
			for i := 0; i < segmentSize+1; i++ {
				s.MustAppend(comp, VolReadIO, Sample{T: simtime.Time(i * 300), V: 1})
			}
		}
		return s
	}
	// Every head segment ends at (segmentSize-1)*300: that horizon frees
	// nothing, one past it frees a segment of every series.
	noop := simtime.Time((segmentSize - 1) * 300)
	small, large := build(10), build(10_000)
	for _, s := range []*Store{small, large} {
		s.Truncate(noop) // the first call walks, and leaves the bound exact
		if got := testing.AllocsPerRun(100, func() { s.Truncate(noop) }); got != 0 {
			t.Fatalf("no-op Truncate allocates %v times", got)
		}
	}
	cost := func(s *Store) time.Duration {
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 5; round++ {
			t0 := time.Now()
			for i := 0; i < 10_000; i++ {
				s.Truncate(noop)
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	if a, b := cost(small), cost(large); b > 2*a+time.Millisecond {
		t.Fatalf("10 000 no-op Truncates cost %v on 10 series and %v on 10 000: the no-op walks the series", a, b)
	}
	if got, want := large.Truncate(noop+1), 10_000*segmentSize; got != want {
		t.Fatalf("Truncate just past the bound dropped %d samples, want %d", got, want)
	}
}

// TestTruncateBoundFollowsLateSeries pins the fast path's correctness
// where the bound can fall: a series created below a horizon already
// applied, and one appended to after truncation emptied it, must both be
// truncated by the next horizon that passes them — against a twin that
// takes the slow path every time (its bound is reset before each call).
func TestTruncateBoundFollowsLateSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	for trial := 0; trial < 50; trial++ {
		fast, slow := NewStore(), NewStore()
		size := 1 + rng.Intn(5)
		fast.SetSegmentSize(size)
		slow.SetSegmentSize(size)
		clock := make(map[string]simtime.Time) // per-series last T: a late series starts at 0
		horizon := simtime.Time(0)
		for op := 0; op < 300; op++ {
			if rng.Intn(6) == 0 {
				// Horizons move both ways; most free nothing.
				horizon = max(0, horizon+simtime.Time(rng.Intn(400)-100))
				slow.expiry = simtime.Time(math.Inf(-1))
				if got, want := fast.Truncate(horizon), slow.Truncate(horizon); got != want {
					t.Fatalf("trial %d op %d: Truncate(%v) dropped %d, the full walk %d", trial, op, horizon, got, want)
				}
				continue
			}
			comp := "vol-" + strconv.Itoa(rng.Intn(1+op/30))
			if _, live := fast.Latest(comp, VolReadIO); !live {
				// A new series, or one truncation emptied, takes any T —
				// below the horizon included.
				clock[comp] = simtime.Time(rng.Intn(int(horizon) + 1))
			}
			clock[comp] += simtime.Time(rng.Intn(60))
			smp := Sample{T: clock[comp], V: rng.Float64()}
			fast.MustAppend(comp, VolReadIO, smp)
			slow.MustAppend(comp, VolReadIO, smp)
		}
		if fast.Len() != slow.Len() || fast.Dropped() != slow.Dropped() {
			t.Fatalf("trial %d: fast store holds %d (dropped %d), full-walk twin %d (dropped %d)",
				trial, fast.Len(), fast.Dropped(), slow.Len(), slow.Dropped())
		}
	}
}
