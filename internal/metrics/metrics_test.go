package metrics

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"diads/internal/simtime"
)

func TestCatalogMatchesFigure4(t *testing.T) {
	cat := Catalog()
	if len(cat) != 4 {
		t.Fatalf("catalog should have 4 layers, got %d", len(cat))
	}
	// Spot-check the metrics the paper names explicitly.
	wantStorage := []Metric{StBytesRead, StBytesWritten, StTotalIOs, VolWriteIO, VolWriteTime}
	for _, m := range wantStorage {
		if !containsMetric(cat[LayerStorage], m) {
			t.Errorf("storage layer missing %q", m)
		}
	}
	if !containsMetric(cat[LayerServer], SrvCPUUsagePct) {
		t.Errorf("server layer missing CPU usage")
	}
	if !containsMetric(cat[LayerNetwork], NetCRCErrors) {
		t.Errorf("network layer missing CRC errors")
	}
	if !containsMetric(cat[LayerDatabase], DBBufferHits) {
		t.Errorf("database layer missing buffer hits")
	}
	for _, l := range Layers() {
		if len(cat[l]) == 0 {
			t.Errorf("layer %s empty", l)
		}
	}
}

func containsMetric(ms []Metric, m Metric) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}

func TestStoreAppendAndWindow(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.MustAppend("vol-V1", VolWriteIO, Sample{T: simtime.Time(i * 300), V: float64(i)})
	}
	if s.Len() != 10 {
		t.Fatalf("Len: got %d", s.Len())
	}
	w := s.Window("vol-V1", VolWriteIO, simtime.NewInterval(600, 1500))
	if len(w) != 3 {
		t.Fatalf("window [600,1500): got %d samples, want 3", len(w))
	}
	if w[0].V != 2 || w[2].V != 4 {
		t.Fatalf("window content wrong: %+v", w)
	}
	mean, n := s.WindowMean("vol-V1", VolWriteIO, simtime.NewInterval(600, 1500))
	if n != 3 || mean != 3 {
		t.Fatalf("WindowMean: got mean=%v n=%d", mean, n)
	}
}

func TestStoreRejectsOutOfOrder(t *testing.T) {
	s := NewStore()
	s.MustAppend("c", VolReadIO, Sample{T: 100, V: 1})
	if err := s.Append("c", VolReadIO, Sample{T: 50, V: 2}); err == nil {
		t.Fatalf("out-of-order append should fail")
	}
}

func TestStoreEmptyWindow(t *testing.T) {
	s := NewStore()
	if w := s.Window("missing", VolReadIO, simtime.NewInterval(0, 100)); len(w) != 0 {
		t.Fatalf("missing series should yield empty window")
	}
	mean, n := s.WindowMean("missing", VolReadIO, simtime.NewInterval(0, 100))
	if mean != 0 || n != 0 {
		t.Fatalf("missing series mean should be (0,0)")
	}
}

func TestStoreKeysDeterministic(t *testing.T) {
	s := NewStore()
	s.MustAppend("b", VolReadIO, Sample{T: 1, V: 1})
	s.MustAppend("a", VolWriteIO, Sample{T: 1, V: 1})
	s.MustAppend("a", VolReadIO, Sample{T: 1, V: 1})
	keys := s.Keys()
	if len(keys) != 3 {
		t.Fatalf("got %d keys", len(keys))
	}
	if keys[0].Component != "a" || keys[0].Metric != VolReadIO {
		t.Fatalf("keys not sorted: %v", keys)
	}
	comps := s.Components()
	if len(comps) != 2 || comps[0] != "a" || comps[1] != "b" {
		t.Fatalf("Components: %v", comps)
	}
	if ms := s.MetricsFor("a"); len(ms) != 2 {
		t.Fatalf("MetricsFor(a): %v", ms)
	}
}

func TestReadWindowPadding(t *testing.T) {
	iv := simtime.NewInterval(1000, 1600)
	rw := ReadWindow(iv)
	if rw.Start != iv.Start.Add(-DefaultMonitorInterval) || rw.End != iv.End.Add(DefaultMonitorInterval) {
		t.Fatalf("ReadWindow(%v) = %v, want one monitoring interval of padding each side", iv, rw)
	}
	if rw.Length() != iv.Length()+2*DefaultMonitorInterval {
		t.Fatalf("length %v, want %v", rw.Length(), iv.Length()+2*DefaultMonitorInterval)
	}
	// A zero-length activity window still reads a full two-interval
	// evidence window around its instant.
	z := ReadWindow(simtime.NewInterval(500, 500))
	if z.Length() != 2*DefaultMonitorInterval {
		t.Fatalf("zero-length window read %v, want %v", z.Length(), 2*DefaultMonitorInterval)
	}
	if !z.Contains(500) {
		t.Fatalf("read window %v should contain its activity instant", z)
	}
	// Padding composes: the console's context view is two applications.
	if got := ReadWindow(rw); got.Length() != iv.Length()+4*DefaultMonitorInterval {
		t.Fatalf("double padding length %v", got.Length())
	}
}

func TestSamplerAveragesConstant(t *testing.T) {
	s := NewStore()
	sp := NewSampler(0, 0)
	iv := simtime.NewInterval(0, simtime.Time(30*simtime.Minute))
	sp.Record(s, "vol", VolWriteIO, iv, func(simtime.Time) float64 { return 42 })
	ser := s.Series("vol", VolWriteIO)
	if len(ser) != 6 {
		t.Fatalf("30 min / 5 min: want 6 samples, got %d", len(ser))
	}
	for _, smp := range ser {
		if math.Abs(smp.V-42) > 1e-9 {
			t.Fatalf("constant fn should average to itself, got %v", smp.V)
		}
	}
}

func TestSamplerAveragesOutBursts(t *testing.T) {
	// A 30-second burst of 100 inside a 5-minute interval of baseline 10
	// must be smeared to roughly 10 + 100*(30/300) = 19: the paper's "noisy
	// data" effect where instantaneous spikes get averaged out.
	s := NewStore()
	sp := NewSampler(0, 0)
	iv := simtime.NewInterval(0, simtime.Time(5*simtime.Minute))
	fn := func(t simtime.Time) float64 {
		if t >= 60 && t < 90 {
			return 110
		}
		return 10
	}
	sp.Record(s, "vol", VolWriteIO, iv, fn)
	ser := s.Series("vol", VolWriteIO)
	if len(ser) != 1 {
		t.Fatalf("want 1 sample, got %d", len(ser))
	}
	if math.Abs(ser[0].V-20) > 1.0 {
		t.Fatalf("burst should be averaged to ~20, got %v", ser[0].V)
	}
}

func TestSamplerNoiseIsDeterministic(t *testing.T) {
	run := func() []Sample {
		s := NewStore()
		sp := NewSampler(0.1, 5)
		iv := simtime.NewInterval(0, simtime.Time(time30()))
		sp.Record(s, "v", VolReadTime, iv, func(simtime.Time) float64 { return 5 })
		return s.Series("v", VolReadTime)
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("bad series lengths %d %d", len(a), len(b))
	}
	noisy := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must give identical noisy samples")
		}
		if math.Abs(a[i].V-5) > 1e-12 {
			noisy = true
		}
	}
	if !noisy {
		t.Fatalf("noise sigma 0.1 should perturb samples")
	}
}

// TestSamplerNoiseIsOrderAndChunkInvariant pins the two properties the
// chunk-size determinism of the online pipeline rests on: a series'
// noise stream depends only on (seed, component, metric) and its own
// sample count, so (i) emitting series in a different order and (ii)
// splitting the emission window into grid-aligned chunks both produce
// byte-identical samples.
func TestSamplerNoiseIsOrderAndChunkInvariant(t *testing.T) {
	fn := func(simtime.Time) float64 { return 5 }
	end := simtime.Time(17 * simtime.Minute) // 3 full intervals + a partial tail

	// One batch emission, series A before B.
	batch := NewStore()
	sp := NewSampler(0.1, 9)
	sp.Record(batch, "a", VolReadTime, simtime.NewInterval(0, end), fn)
	sp.Record(batch, "b", VolReadTime, simtime.NewInterval(0, end), fn)

	// Chunked emission on the monitoring grid, series B before A.
	chunked := NewStore()
	sp2 := NewSampler(0.1, 9)
	cuts := []simtime.Time{0, simtime.Time(5 * simtime.Minute), simtime.Time(15 * simtime.Minute), end}
	for i := 0; i+1 < len(cuts); i++ {
		iv := simtime.NewInterval(cuts[i], cuts[i+1])
		sp2.Record(chunked, "b", VolReadTime, iv, fn)
		sp2.Record(chunked, "a", VolReadTime, iv, fn)
	}

	for _, c := range []string{"a", "b"} {
		got, want := chunked.Series(c, VolReadTime), batch.Series(c, VolReadTime)
		if len(got) != 4 || len(got) != len(want) {
			t.Fatalf("series %s: %d chunked vs %d batch samples", c, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("series %s sample %d: chunked %+v != batch %+v", c, i, got[i], want[i])
			}
		}
	}
}

func time30() simtime.Duration { return 30 * simtime.Minute }

// TestSamplerHoldWritesOnRelease holds a sampler's writes across series
// and stores, and requires the stores to end exactly as an unheld
// twin's: queued runs land at Release, or when a run
// for another store arrives, and a slot that moves between stores writes
// each store's own series.
func TestSamplerHoldWritesOnRelease(t *testing.T) {
	fn := func(tt simtime.Time) float64 { return 5 + float64(tt)/1000 }
	iv := func(i int) simtime.Interval {
		return simtime.NewInterval(simtime.Time(i*300), simtime.Time((i+1)*300))
	}
	held, heldOther := NewStore(), NewStore()
	free, freeOther := NewStore(), NewStore()
	hs, fs := NewSampler(0.1, 4), NewSampler(0.1, 4)
	both := func(store, twin *Store, c string, i int) {
		hs.Record(store, c, VolReadTime, iv(i), fn)
		fs.Record(twin, c, VolReadTime, iv(i), fn)
	}
	hs.Hold()
	both(held, free, "a", 0)
	both(held, free, "b", 0)
	if n := held.Len(); n != 0 {
		t.Fatalf("a Hold wrote %d samples before Release", n)
	}
	both(heldOther, freeOther, "a", 0) // another store: writes held's queue
	if n := held.Len(); n != 2 {
		t.Fatalf("switching stores left %d of 2 samples written", n)
	}
	both(held, free, "a", 1) // back again: writes heldOther's queue
	both(held, free, "b", 1)
	if n, m := held.Len(), heldOther.Len(); n != 2 || m != 1 {
		t.Fatalf("before Release: %d and %d samples, want 2 and 1", n, m)
	}
	hs.Release()
	for _, st := range []struct{ got, want *Store }{{held, free}, {heldOther, freeOther}} {
		if g, w := st.got.Keys(), st.want.Keys(); !slices.Equal(g, w) {
			t.Fatalf("keys %v, unheld twin %v", g, w)
		}
		for _, k := range st.want.Keys() {
			if g, w := st.got.Series(k.Component, k.Metric), st.want.Series(k.Component, k.Metric); !slices.Equal(g, w) {
				t.Fatalf("%s: %v, unheld twin %v", k, g, w)
			}
		}
	}
}

// TestSeriesKeyString pins the noise-stream label to the formatting it
// replaced, byte for byte, including invalid UTF-8.
func TestSeriesKeyString(t *testing.T) {
	for _, k := range []SeriesKey{
		{"vol-V1", VolReadTime}, {"", ""}, {"a/b", "c/d"}, {"port-\xff\x00", "%s %d"}, {"卷", SrvCPUUsagePct},
	} {
		if got, want := k.String(), fmt.Sprintf("%s/%s", k.Component, k.Metric); got != want {
			t.Fatalf("SeriesKey%+v.String() = %q, want %q", k, got, want)
		}
	}
}

func TestSamplerPartialTrailingInterval(t *testing.T) {
	s := NewStore()
	sp := NewSampler(0, 0)
	// 7 minutes of data with 5-minute intervals: one full + one partial.
	iv := simtime.NewInterval(0, simtime.Time(7*simtime.Minute))
	sp.Record(s, "v", VolReadIO, iv, func(simtime.Time) float64 { return 3 })
	ser := s.Series("v", VolReadIO)
	if len(ser) != 2 {
		t.Fatalf("want 2 samples, got %d", len(ser))
	}
	if ser[1].T != simtime.Time(7*simtime.Minute) {
		t.Fatalf("trailing sample should end at interval end, got %v", ser[1].T)
	}
}

func TestWindowMeanProperty(t *testing.T) {
	// WindowMean over the full series equals the arithmetic mean of values.
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewStore()
		var sum float64
		for i, v := range vals {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true // avoid overflow in the reference sum
			}
			s.MustAppend("c", VolWriteTime, Sample{T: simtime.Time(i), V: v})
			sum += v
		}
		mean, n := s.WindowMean("c", VolWriteTime, simtime.NewInterval(0, simtime.Time(len(vals))))
		if n != len(vals) {
			return false
		}
		want := sum / float64(len(vals))
		return math.Abs(mean-want) < 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
