package metrics

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
func TestTruncateFloatExactProperty(t *testing.T) {
	for _, size := range []int{1, 3, 7, segmentSize, 100, 1000} {
		t.Run("seg="+strconv.Itoa(size), func(t *testing.T) { truncateFloatExactTrials(t, size) })
	}
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
				bad := slices.Clone(run)
				i := 1 + rng.Intn(len(bad)-1)
				bad[i-1], bad[i] = bad[i], bad[i-1]
				before := s.Len()
				if err := s.AppendRun("vol-V1", VolReadIO, bad); err == nil || s.Len() != before {
					t.Fatalf("out-of-order run: err %v, store %d -> %d samples", err, before, s.Len())
				}
			}
			if err := s.AppendRun("vol-V1", VolReadIO, run); err != nil {
				t.Fatal(err)
			}
		}
	}
	for trial := 0; trial < trials; trial++ {
		n := 50 + rng.Intn(4*segmentSize)
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
			smp := Sample{T: simtime.Time(i * 300), V: v}
			ref.MustAppend("vol-V1", VolReadIO, smp)
			cut.MustAppend("vol-V1", VolReadIO, smp)
			smps[i] = smp
		}
		appendRuns(runs, smps)
		horizon := simtime.Time(rng.Intn(n) * 300)
		cut.Truncate(horizon)
		runs.Truncate(horizon)

		// Probe random windows that start at or above the horizon,
		// including degenerate and over-long ones.
		for probe := 0; probe < 30; probe++ {
			start := horizon.Add(simtime.Duration(rng.Intn(n) * 150))
			end := start.Add(simtime.Duration(rng.Intn(n) * 300))
			iv := simtime.NewInterval(start, end)
			want := ref.WindowStats("vol-V1", VolReadIO, iv)
			got := cut.WindowStats("vol-V1", VolReadIO, iv)
			if want.N != got.N || want.Sum != got.Sum || want.Mean != got.Mean {
				t.Fatalf("trial %d horizon %v window %v: stats diverged after Truncate:\n  ref %+v\n  cut %+v",
					trial, horizon, iv, want, got)
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

		// Segment edges, against running sums kept here rather than in the
		// store: a window that ends exactly on a segment boundary (its
		// closing prefix sum is the next segment's first checkpoint, or
		// the tail), and one whose first sample is the first retained one
		// (its opening prefix sum is, after truncation, the head
		// segment's first checkpoint).
		cum := make([]float64, n+1) // cum[i] = v[0] + ... + v[i-1], summed left to right
		for i, v := range vals {
			cum[i+1] = cum[i] + v
		}
		first := cut.series[SeriesKey{Component: "vol-V1", Metric: VolReadIO}].dropped
		edges := [][2]int{{first, first + 1 + rng.Intn(n-first)}}
		if k := first/size + 1; k*size <= n {
			edges = append(edges, [2]int{first + rng.Intn(k*size-first), k * size})
		}
		for _, e := range edges {
			lo, hi := e[0], e[1]
			iv := simtime.NewInterval(simtime.Time(lo*300), simtime.Time(hi*300))
			wantSum := cum[hi]
			if lo > 0 {
				wantSum -= cum[lo]
			}
			for name, st := range map[string]*Store{"ref": ref, "cut": cut, "runs": runs} {
				got := st.WindowStats("vol-V1", VolReadIO, iv)
				means := st.WindowMeans("vol-V1", VolReadIO, []simtime.Interval{iv}, nil)
				if got.N != hi-lo || math.Float64bits(got.Sum) != math.Float64bits(wantSum) ||
					len(means) != 1 || math.Float64bits(means[0]) != math.Float64bits(wantSum/float64(hi-lo)) {
					t.Fatalf("trial %d %s store, samples [%d,%d) (first retained %d): stats %+v means %v, running-sum reference n=%d sum=%.17g",
						trial, name, lo, hi, first, got, means, hi-lo, wantSum)
				}
			}
		}

		// Batched reads: every window shape, below the horizon included
		// (there the two stores legitimately differ, so each is checked
		// against its own per-call reader).
		windows := randomWindows(rng, n, horizon)
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
		orderedReads(t, order, ref, cut, runs, windows, n, horizon)

		// Keep appending after truncation and re-check: the tail sum
		// must anchor future aggregates too.
		smps = smps[:0]
		for i := n; i < n+100; i++ {
			v := math.Exp(rng.Float64()*8) * rng.Float64()
			smp := Sample{T: simtime.Time(i * 300), V: v}
			ref.MustAppend("vol-V1", VolReadIO, smp)
			cut.MustAppend("vol-V1", VolReadIO, smp)
			smps = append(smps, smp)
		}
		appendRuns(runs, smps)
		iv := simtime.NewInterval(horizon, simtime.Time((n+100)*300))
		wantSt := ref.WindowStats("vol-V1", VolReadIO, iv)
		gotSt := cut.WindowStats("vol-V1", VolReadIO, iv)
		if wantSt.N != gotSt.N || wantSt.Sum != gotSt.Sum || wantSt.Mean != gotSt.Mean {
			t.Fatalf("trial %d: post-truncation appends diverged:\n  ref %+v\n  cut %+v", trial, wantSt, gotSt)
		}
		if rs := runs.WindowStats("vol-V1", VolReadIO, iv); rs != gotSt {
			t.Fatalf("trial %d: post-truncation AppendRun diverged: %+v, per-sample Append %+v", trial, rs, gotSt)
		}
		assertWindowMeansBitwise(t, cut, "vol-V1", VolReadIO, randomWindows(rng, n+100, horizon))
	}
}

// randomWindows draws windows of every shape the batched reader must
// handle over a series sampled every 300 s at [0, n*300): between two
// samples (empty), zero-length, with both ends exactly on sample
// timestamps (Start inclusive, End exclusive), long enough to span
// several segments, wholly or partly below the truncation horizon, and
// past the end of the series.
func randomWindows(rng *rand.Rand, n int, horizon simtime.Time) []simtime.Interval {
	at := func(i int) simtime.Time { return simtime.Time(i * 300) }
	var out []simtime.Interval
	for i := 0; i < 40; i++ {
		a := rng.Intn(n)
		switch i % 8 {
		case 0: // strictly between two samples
			out = append(out, simtime.NewInterval(at(a)+1, at(a)+299))
		case 1: // zero-length, on a sample
			out = append(out, simtime.NewInterval(at(a), at(a)))
		case 2: // exactly one sample, both ends on timestamps
			out = append(out, simtime.NewInterval(at(a), at(a+1)))
		case 3: // boundary-aligned, spanning segments
			out = append(out, simtime.NewInterval(at(a), at(a+segmentSize+rng.Intn(2*segmentSize))))
		case 4: // unaligned
			start := at(a) + simtime.Time(rng.Intn(300))
			out = append(out, simtime.NewInterval(start, start.Add(simtime.Duration(rng.Intn(n*300)))))
		case 5: // wholly below the horizon
			b := rng.Intn(int(horizon)/300 + 1)
			out = append(out, simtime.NewInterval(at(b/2), at(b)))
		case 6: // straddling the horizon
			out = append(out, simtime.NewInterval(
				horizon.Add(-simtime.Duration(rng.Intn(n*300))),
				horizon.Add(simtime.Duration(rng.Intn(n*300)))))
		case 7: // past the end of the series
			out = append(out, simtime.NewInterval(at(n+a), at(n+2*a)))
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
func orderedReads(t *testing.T, rng *rand.Rand, ref, cut, runs *Store, random []simtime.Interval, n int, horizon simtime.Time) {
	t.Helper()
	sorted := slices.Clone(random)
	slices.SortStableFunc(sorted, func(a, b simtime.Interval) int { return cmp.Compare(a.Start, b.Start) })
	var da []simtime.Interval
	for start := simtime.Time(rng.Intn(600)); len(da) < 40; {
		dur := simtime.Duration(rng.Intn(n * 30))
		da = append(da, ReadWindow(simtime.NewInterval(start, start.Add(dur))))
		step := simtime.Duration(rng.Intn(n * 15))
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

// TestLiveBytesPerSample pins the layout's cost: a series of 292 samples
// (a day at the 5-minute interval plus the read-window padding — what
// one ingest tenant-day holds per series) must cost at most 22 live
// bytes per sample, index and slack included: 16 for the sample, the
// rest 96-byte segment headers with their inline checkpoints, empty
// slots in the last segment and in the segment list, and the index.
// Three parallel arrays in 256-slot segments cost 57; 24-byte entries
// carrying the prefix sum cost 27.7.
func TestLiveBytesPerSample(t *testing.T) {
	const nSeries, perSeries = 200, 292
	comps := make([]string, nSeries)
	for i := range comps {
		comps[i] = "vol-" + strconv.Itoa(i)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	s := NewStore()
	for i := 0; i < perSeries; i++ {
		for _, c := range comps {
			s.MustAppend(c, VolReadIO, Sample{T: simtime.Time(i * 300), V: float64(i)})
		}
	}
	after := heap()
	perSample := float64(after-before) / float64(s.Len())
	runtime.KeepAlive(s)
	t.Logf("%.1f live bytes per sample", perSample)
	if perSample > 22 {
		t.Fatalf("%.1f live bytes per sample, want at most 22", perSample)
	}
}
