package metrics

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"diads/internal/simtime"
)

func fill(s *Store, component string, n int, v func(i int) float64) {
	for i := 0; i < n; i++ {
		s.MustAppend(component, VolReadIO, Sample{T: simtime.Time(i * 300), V: v(i)})
	}
}

func TestWindowStatsMatchesDirectComputation(t *testing.T) {
	s := NewStore()
	fill(s, "vol-V1", 100, func(i int) float64 { return 10 + 3*math.Sin(float64(i)) })
	iv := simtime.NewInterval(simtime.Time(20*300), simtime.Time(70*300))

	w := s.Window("vol-V1", VolReadIO, iv)
	var sum float64
	for _, smp := range w {
		sum += smp.V
	}
	mean := sum / float64(len(w))

	st := s.WindowStats("vol-V1", VolReadIO, iv)
	if st.N != len(w) {
		t.Fatalf("N = %d, want %d", st.N, len(w))
	}
	if math.Abs(st.Mean-mean) > 1e-9 {
		t.Errorf("stats = %+v, want mean %.9f", st, mean)
	}
	gotMean, n := s.WindowMean("vol-V1", VolReadIO, iv)
	if n != st.N || math.Abs(gotMean-st.Mean) > 1e-12 {
		t.Errorf("WindowMean = %.9f/%d disagrees with WindowStats", gotMean, n)
	}
}

func TestWindowStatsEmptyAndMissing(t *testing.T) {
	s := NewStore()
	if st := s.WindowStats("nope", VolReadIO, simtime.NewInterval(0, 100)); st.N != 0 || st.Mean != 0 {
		t.Errorf("missing series stats = %+v, want zero", st)
	}
	fill(s, "vol-V1", 10, func(int) float64 { return 5 })
	if st := s.WindowStats("vol-V1", VolReadIO, simtime.NewInterval(1e6, 2e6)); st.N != 0 {
		t.Errorf("empty window stats = %+v, want zero", st)
	}
}

func TestSinceCursorSeesOnlyNewSamples(t *testing.T) {
	s := NewStore()
	fill(s, "vol-V1", 5, func(i int) float64 { return float64(i) })

	got, cur := s.Since("vol-V1", VolReadIO, 0)
	if len(got) != 5 || cur != 5 {
		t.Fatalf("first read: %d samples, cursor %d, want 5/5", len(got), cur)
	}
	if again, cur2 := s.Since("vol-V1", VolReadIO, cur); len(again) != 0 || cur2 != 5 {
		t.Fatalf("idle read: %d samples, cursor %d, want 0/5", len(again), cur2)
	}
	s.MustAppend("vol-V1", VolReadIO, Sample{T: simtime.Time(5 * 300), V: 42})
	tail, cur3 := s.Since("vol-V1", VolReadIO, cur)
	if len(tail) != 1 || tail[0].V != 42 || cur3 != 6 {
		t.Fatalf("tail read: %v cursor %d, want one sample of 42, cursor 6", tail, cur3)
	}
	if missing, mcur := s.Since("ghost", VolReadIO, 3); missing != nil || mcur != 3 {
		t.Errorf("missing series must keep the cursor: got %v/%d", missing, mcur)
	}
}

func TestLatest(t *testing.T) {
	s := NewStore()
	if _, ok := s.Latest("vol-V1", VolReadIO); ok {
		t.Error("Latest on empty store reported a sample")
	}
	fill(s, "vol-V1", 3, func(i int) float64 { return float64(i) })
	smp, ok := s.Latest("vol-V1", VolReadIO)
	if !ok || smp.V != 2 {
		t.Errorf("Latest = %v/%v, want V=2", smp, ok)
	}
}

// TestConcurrentAppendAndQuery exercises the store the way the online
// pipeline does — the sampler appending while monitor and diagnosis
// workers read — and must pass under -race.
func TestConcurrentAppendAndQuery(t *testing.T) {
	for _, seg := range testSegmentSizes {
		t.Run(fmt.Sprintf("segment=%d", seg), func(t *testing.T) { concurrentAppendAndQuery(t, seg) })
	}
}

// testSegmentSizes are the segment sizes the layout-sensitive tests run
// at: the default, one sample per segment (every boundary case on every
// append) and a size that divides nothing.
var testSegmentSizes = []int{0, 1, 7}

func concurrentAppendAndQuery(t *testing.T, seg int) {
	s := NewStore()
	s.SetSegmentSize(seg)
	const writers, perWriter, reads = 8, 200, 200
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			comp := fmt.Sprintf("vol-%d", w)
			for i := 0; i < perWriter; i++ {
				s.MustAppend(comp, VolReadIO, Sample{T: simtime.Time(i), V: float64(i)})
				if i%2 == 0 {
					s.MustAppend(comp, VolReadTime, Sample{T: simtime.Time(i), V: 0.01})
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			cursor := 0
			comp := fmt.Sprintf("vol-%d", r%writers)
			for i := 0; i < reads; i++ {
				iv := simtime.NewInterval(0, simtime.Time(perWriter))
				st := s.WindowStats(comp, VolReadIO, iv)
				if st.N > 0 && st.Mean < 0 {
					t.Errorf("inconsistent stats under concurrency: %+v", st)
					return
				}
				var tail []Sample
				tail, cursor = s.Since(comp, VolReadIO, cursor)
				for j := 1; j < len(tail); j++ {
					if tail[j].T < tail[j-1].T {
						t.Error("Since returned out-of-order samples")
						return
					}
				}
				s.Len()
				s.Latest(comp, VolReadIO)
				// The ordered index is read while writers insert into it.
				if ms := s.MetricsFor(comp); len(ms) > 2 {
					t.Errorf("MetricsFor(%s) = %v under concurrency", comp, ms)
					return
				}
				if ks := s.Keys(); !slices.IsSortedFunc(ks, SeriesKey.compare) {
					t.Errorf("Keys not sorted under concurrency: %v", ks)
					return
				}
				s.WindowMeans(comp, VolReadIO, []simtime.Interval{iv}, nil)
			}
		}(r)
	}
	wg.Wait()
	readers.Wait()

	if got, want := s.Len(), writers*(perWriter+perWriter/2); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	for w := 0; w < writers; w++ {
		comp := fmt.Sprintf("vol-%d", w)
		st := s.WindowStats(comp, VolReadIO, simtime.NewInterval(0, simtime.Time(perWriter)))
		if st.N != perWriter {
			t.Errorf("%s: N = %d, want %d", comp, st.N, perWriter)
		}
		wantMean := float64(perWriter-1) / 2
		if math.Abs(st.Mean-wantMean) > 1e-9 {
			t.Errorf("%s: mean = %f, want %f", comp, st.Mean, wantMean)
		}
	}
}

func TestAppendRejectsOutOfOrder(t *testing.T) {
	s := NewStore()
	s.MustAppend("c", VolReadIO, Sample{T: 100, V: 1})
	if err := s.Append("c", VolReadIO, Sample{T: 50, V: 2}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	// Equal timestamps are allowed (non-decreasing).
	if err := s.Append("c", VolReadIO, Sample{T: 100, V: 3}); err != nil {
		t.Fatalf("equal-timestamp append rejected: %v", err)
	}
}

// TestSeriesIndexProperty pins the maintained index against a naive
// map-backed twin: after random interleavings of AppendRun (new and
// existing series, on components that share prefixes, so "V1" < "V10" <
// "V2" must come out of string order, not insertion order),
// SetSegmentSize and Truncate, Keys equals the twin's key set sorted by
// (component, metric), and Components and MetricsFor equal a filter over
// it. Truncate empties series without removing them, so their keys stay.
//
// The same interleavings hold AppendRun to per-sample appends through
// Store.Batch on a second store: every series reads back identically,
// and a run with a sample out of time order — within the run, or against
// the series' newest sample — is refused whole, leaving the store (and
// its index) untouched. Chunks queued through one Sampler, each with one
// run stepping back in time, refuse that run alone and write the rest.
func TestSeriesIndexProperty(t *testing.T) {
	for _, seg := range testSegmentSizes {
		t.Run(fmt.Sprintf("segment=%d", seg), func(t *testing.T) { seriesIndexProperty(t, seg) })
	}
}

func seriesIndexProperty(t *testing.T, seg int) {
	rng := rand.New(rand.NewSource(20260929))
	comps := []string{"V1", "V10", "V100", "V2", "V", "pool-P1", "pool-P10", "srv", ""}
	mets := []Metric{VolReadIO, VolWriteIO, VolReadTime, VolWriteTime, StTotalIOs, SrvCPUUsagePct}

	appended := 0  // into the current trial's store
	refused := 0   // out-of-order runs, over all trials
	var per *Store // the trial's per-sample Append twin
	check := func(trial, op int, s *Store, twin map[SeriesKey]bool) {
		t.Helper()
		// Len and Dropped walk the same index.
		if live, dropped := s.Len(), s.Dropped(); live+dropped != appended {
			t.Fatalf("trial %d op %d: Len %d + Dropped %d, %d appended", trial, op, live, dropped, appended)
		}
		if s.Len() != per.Len() || s.Dropped() != per.Dropped() {
			t.Fatalf("trial %d op %d: AppendRun store Len %d Dropped %d, per-sample Append twin %d %d",
				trial, op, s.Len(), s.Dropped(), per.Len(), per.Dropped())
		}
		for k := range twin {
			if got, want := s.Series(k.Component, k.Metric), per.Series(k.Component, k.Metric); !slices.Equal(got, want) {
				t.Fatalf("trial %d op %d: %s = %v by AppendRun, %v by per-sample Append", trial, op, k, got, want)
			}
		}
		want := make([]SeriesKey, 0, len(twin))
		for k := range twin {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Component != want[j].Component {
				return want[i].Component < want[j].Component
			}
			return want[i].Metric < want[j].Metric
		})
		if got := s.Keys(); !slices.Equal(got, want) {
			t.Fatalf("trial %d op %d: Keys = %v, want %v", trial, op, got, want)
		}
		wantComps := []string{}
		for _, k := range want {
			if len(wantComps) == 0 || wantComps[len(wantComps)-1] != k.Component {
				wantComps = append(wantComps, k.Component)
			}
		}
		if got := s.Components(); !slices.Equal(got, wantComps) {
			t.Fatalf("trial %d op %d: Components = %q, want %q", trial, op, got, wantComps)
		}
		for _, c := range append([]string{"V1000", "absent"}, comps...) {
			var wantMs []Metric
			for _, k := range want {
				if k.Component == c {
					wantMs = append(wantMs, k.Metric)
				}
			}
			if got := s.MetricsFor(c); !slices.Equal(got, wantMs) {
				t.Fatalf("trial %d op %d: MetricsFor(%q) = %v, want %v", trial, op, c, got, wantMs)
			}
		}
	}

	// draw returns a random key and an in-order run for it, or, if back,
	// one of at least two samples whose last steps back before its first,
	// so it is refused whatever the series holds.
	var now simtime.Time
	draw := func(back bool) (SeriesKey, []Sample) {
		k := SeriesKey{Component: comps[rng.Intn(len(comps))], Metric: mets[rng.Intn(len(mets))]}
		n := 1 + rng.Intn(3*segmentSize/2)
		if back {
			n = max(n, 2)
		}
		run := make([]Sample, n)
		for i := range run {
			now += simtime.Time(rng.Intn(300))
			run[i] = Sample{T: now, V: rng.Float64()}
		}
		if back {
			run[n-1].T = run[0].T - simtime.Time(1+rng.Intn(600))
		}
		return k, run
	}
	// expect reports whether the run may follow the series as the twin
	// holds it and, if so, appends it to the twin.
	var twin map[SeriesKey]bool
	expect := func(k SeriesKey, run []Sample) bool {
		last, ok := per.Latest(k.Component, k.Metric)
		for i, smp := range run {
			if (i > 0 || ok) && smp.T < last.T {
				return false
			}
			last = smp
		}
		b := per.Batch()
		for _, smp := range run {
			if err := b.Append(k.Component, k.Metric, smp); err != nil {
				t.Fatal(err)
			}
		}
		b.Close()
		twin[k] = true
		appended += len(run)
		return true
	}
	// One sampler across every trial's store: its slots must re-resolve
	// when the store changes and stay valid across Truncate.
	sp := NewSampler(0, 0)
	refusedQueued, refusedTail := 0, 0

	for trial := 0; trial < 25; trial++ {
		s := NewStore()
		s.SetSegmentSize(seg)
		per = NewStore()
		per.SetSegmentSize(seg)
		twin = map[SeriesKey]bool{}
		appended = 0
		check(trial, -1, s, twin)
		now = 0
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(20); {
			case r == 0:
				size := rng.Intn(8) // 0 restores the default
				s.SetSegmentSize(size)
				per.SetSegmentSize(size)
			case r == 1:
				h := simtime.Time(rng.Int63n(int64(now) + 1))
				s.Truncate(h)
				per.Truncate(h)
			case r == 2:
				// A chunk through the sampler's queue, as an emission
				// writes it: a few runs under one Hold, one of them
				// stepping back in time within itself. Release writes the
				// rest and panics; check holds the store to the twin.
				n := 2 + rng.Intn(4)
				bad := rng.Intn(n)
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("trial %d op %d: a queued run stepped back in time but Release did not panic", trial, op)
						}
					}()
					sp.Hold()
					for i := range n {
						k, run := draw(i == bad)
						if expect(k, run) == (i == bad) {
							t.Fatalf("trial %d op %d: drawn run %d in order: %v", trial, op, i, i != bad)
						}
						sl := sp.begin(s, k.Component, k.Metric)
						sp.run = append(sp.run, run...)
						sp.end(sl)
					}
					sp.Release()
				}()
				refusedQueued++
				check(trial, op, s, twin)
			default:
				k, run := draw(false)
				if rng.Intn(4) == 0 { // one sample steps back in time
					run[rng.Intn(len(run))].T -= simtime.Time(1 + rng.Intn(600))
				}
				inOrder := expect(k, run)
				err := s.AppendRun(k.Component, k.Metric, run)
				if inOrder != (err == nil) {
					t.Fatalf("trial %d op %d: AppendRun of %d samples, in order %v: err %v", trial, op, len(run), inOrder, err)
				}
				if err != nil {
					refused++
					if slices.IsSortedFunc(run, func(a, b Sample) int { return cmp.Compare(a.T, b.T) }) {
						refusedTail++ // in order itself, behind the series' newest sample
					}
				}
			}
			if op%10 == 0 {
				check(trial, op, s, twin)
			}
		}
		check(trial, 200, s, twin)
		// Mutating the returned copy must not reach the index.
		if ks := s.Keys(); len(ks) > 1 {
			ks[0], ks[len(ks)-1] = ks[len(ks)-1], ks[0]
			check(trial, 201, s, twin)
		}
	}
	if refused == 0 || refusedTail == 0 || refusedQueued == 0 {
		t.Fatalf("out-of-order runs drawn: %d alone (%d against the series' newest sample), %d queued",
			refused, refusedTail, refusedQueued)
	}
}

func TestWindowMeansMissingSeriesKeepsDst(t *testing.T) {
	s := NewStore()
	fill(s, "vol-V1", 3, func(i int) float64 { return float64(i) })
	dst := []float64{7}
	got := s.WindowMeans("ghost", VolReadIO, []simtime.Interval{simtime.NewInterval(0, 900)}, dst)
	if !slices.Equal(got, []float64{7}) {
		t.Fatalf("missing series: WindowMeans = %v, want dst unchanged", got)
	}
	if got := s.WindowMeans("vol-V1", VolReadIO, nil, nil); got != nil {
		t.Fatalf("no windows: WindowMeans = %v, want nil", got)
	}
}
