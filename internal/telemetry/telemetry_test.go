package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers one registry from many goroutines —
// instrument creation races lookup, writes race Snapshot — and checks
// the totals. Run under -race, this is the lock-discipline regression.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Counter("c_total", "h", Labels{"g": "shared"}).Inc()
				reg.Gauge("g_now", "h", nil).Set(float64(i))
				reg.Histogram("h_seconds", "h", nil, nil).Observe(0.01)
				if i%50 == 0 {
					reg.Snapshot() // scrapes race writes
				}
			}
		}(g)
	}
	wg.Wait()

	if got := reg.Counter("c_total", "h", Labels{"g": "shared"}).Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	h := reg.Histogram("h_seconds", "h", nil, nil)
	if h.Count() != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	if want := float64(goroutines*perG) * 0.01; math.Abs(h.Sum()-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

// TestRegistryKindMismatchPanics pins the one-kind-per-family contract.
func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "h", nil)
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "h", nil)
}

// TestRegistryDisabled proves disabled instruments are no-ops — the
// mechanism behind the telemetry on/off byte-parity regression.
func TestRegistryDisabled(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "h", nil)
	g := reg.Gauge("g_now", "h", nil)
	h := reg.Histogram("h_seconds", "h", nil, nil)
	reg.SetEnabled(false)
	c.Inc()
	g.Set(42)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Errorf("disabled instruments recorded: counter=%d gauge=%v hist=%d",
			c.Value(), g.Value(), h.Count())
	}
	reg.SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Errorf("re-enabled counter = %d, want 1", c.Value())
	}
}

// TestHistogramQuantiles pins quantile estimation: exact values for a
// known distribution, interpolation inside buckets, overflow flooring.
// TestFuncSeriesFreeze pins the owner's way out of a callback series:
// freeze reads the callback one last time and the series keeps that
// value without calling it again; freezing a series a later registration
// took over leaves the newcomer alone.
func TestFuncSeriesFreeze(t *testing.T) {
	reg := NewRegistry()
	value := func(name string) float64 {
		for _, fam := range reg.Snapshot() {
			if fam.Name == name {
				return fam.Series[0].Value
			}
		}
		t.Fatalf("%s is not registered", name)
		return 0
	}
	depth := 3.0
	freeze := reg.GaugeFunc("diads_depth", "Depth.", nil, func() float64 { return depth })
	depth = 5
	if got := value("diads_depth"); got != 5 {
		t.Fatalf("live series = %v, want 5", got)
	}
	freeze()
	depth = 9
	if got := value("diads_depth"); got != 5 {
		t.Errorf("frozen series = %v, want the 5 it had when frozen", got)
	}

	stale := reg.CounterFunc("diads_hits_total", "Hits.", nil, func() float64 { return 1 })
	reg.CounterFunc("diads_hits_total", "Hits.", nil, func() float64 { return depth })
	stale()
	depth = 11
	if got := value("diads_hits_total"); got != 11 {
		t.Errorf("series taken over by a later registration = %v after the earlier owner froze, want 11", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "h", nil, []float64{1, 2, 4, 8})
	// 100 observations uniform in (0,1]: all land in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p50 of uniform(0,1] = %v, want 0.5 (linear interpolation)", got)
	}
	if got := s.Quantile(1.0); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("p100 = %v, want 1.0", got)
	}

	// Spread across buckets: 50 in (0,1], 30 in (1,2], 20 in (2,4].
	h2 := reg.Histogram("h2", "h", nil, []float64{1, 2, 4, 8})
	for i := 0; i < 50; i++ {
		h2.Observe(0.5)
	}
	for i := 0; i < 30; i++ {
		h2.Observe(1.5)
	}
	for i := 0; i < 20; i++ {
		h2.Observe(3)
	}
	s2 := h2.Snapshot()
	// rank 80 closes the (1,2] bucket exactly.
	if got := s2.Quantile(0.8); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("p80 = %v, want 2.0", got)
	}
	// rank 90 is halfway through the (2,4] bucket.
	if got := s2.Quantile(0.9); math.Abs(got-3.0) > 1e-9 {
		t.Errorf("p90 = %v, want 3.0", got)
	}

	// Overflow: values beyond the last bound floor to it.
	h3 := reg.Histogram("h3", "h", nil, []float64{1})
	h3.Observe(100)
	if got := h3.Snapshot().Quantile(0.99); got != 1 {
		t.Errorf("overflow quantile = %v, want last finite bound 1", got)
	}

	// Empty histogram.
	h4 := reg.Histogram("h4", "h", nil, nil)
	if got := h4.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty-histogram quantile = %v, want 0", got)
	}
}

// TestExpositionValid renders a populated registry and validates it with
// the package's own checker, then pins key lines.
func TestExpositionValid(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("diads_test_total", "Things counted.", Labels{"kind": "a"}).Add(3)
	reg.Gauge("diads_depth", "Depth.", nil).Set(2.5)
	reg.Histogram("diads_wall_seconds", "Walls.", Labels{"m": "pd"}, []float64{0.1, 1}).Observe(0.05)
	reg.GaugeFunc("diads_fn", "Callback.", nil, func() float64 { return 7 })

	data := reg.Exposition()
	if err := ValidateExposition(data); err != nil {
		t.Fatalf("own exposition failed validation: %v\n%s", err, data)
	}
	for _, want := range []string{
		"# TYPE diads_test_total counter",
		`diads_test_total{kind="a"} 3`,
		"diads_depth 2.5",
		`diads_wall_seconds_bucket{m="pd",le="0.1"} 1`,
		`diads_wall_seconds_bucket{m="pd",le="+Inf"} 1`,
		`diads_wall_seconds_sum{m="pd"} 0.05`,
		`diads_wall_seconds_count{m="pd"} 1`,
		"diads_fn 7",
	} {
		if !bytes.Contains(data, []byte(want+"\n")) {
			t.Errorf("exposition missing %q:\n%s", want, data)
		}
	}
}

// TestValidateExpositionRejects pins the validator's failure modes.
func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"empty", ""},
		{"no trailing newline", "# TYPE a counter\na 1"},
		{"no samples", "# TYPE a counter\n"},
		{"sample without TYPE", "a 1\n"},
		{"bad type", "# TYPE a widget\na 1\n"},
		{"duplicate TYPE", "# TYPE a counter\na 1\n# TYPE a counter\n"},
		{"bad value", "# TYPE a counter\na one\n"},
		{"unterminated labels", "# TYPE a counter\na{x=\"1\" 1\n"},
		{"bare histogram sample", "# TYPE a histogram\na 1\n"},
		{"bucket missing le", "# TYPE a histogram\na_bucket{x=\"1\"} 1\n"},
		{"bad label name", "# TYPE a counter\na{0x=\"1\"} 1\n"},
		{"bad timestamp", "# TYPE a counter\na 1 nope\n"},
	}
	for _, tc := range cases {
		if err := ValidateExposition([]byte(tc.body)); err == nil {
			t.Errorf("%s: validator accepted %q", tc.name, tc.body)
		}
	}

	good := "# HELP a Help text.\n# TYPE a counter\na{x=\"y\"} 1 1712000000\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("validator rejected well-formed exposition: %v", err)
	}
}

// TestTracerRing pins the bounded ring: capacity eviction, oldest-first
// order, per-trace filtering, and the disabled no-op.
func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Record(Span{TraceID: "t", Name: string(rune('a' + i))})
	}
	if tr.Total() != 6 {
		t.Errorf("total = %d, want 6", tr.Total())
	}
	got := tr.Recent(0)
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	if got[0].Name != "c" || got[3].Name != "f" {
		t.Errorf("ring order = %v..%v, want c..f", got[0].Name, got[3].Name)
	}
	if n := len(tr.Recent(2)); n != 2 {
		t.Errorf("Recent(2) returned %d", n)
	}

	tr.Record(Span{TraceID: "other", Name: "x"})
	if n := len(tr.Trace("other")); n != 1 {
		t.Errorf("Trace(other) returned %d spans, want 1", n)
	}

	tr.SetEnabled(false)
	tr.Record(Span{TraceID: "t", Name: "dropped"})
	if tr.Total() != 7 {
		t.Errorf("disabled tracer recorded; total = %d, want 7", tr.Total())
	}
}

// TestRenderSnapshotSharesExpositionData pins the no-drift property: the
// console render and the exposition are both pure functions of one
// snapshot, so every series name in one appears in the other.
func TestRenderSnapshotSharesExpositionData(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("diads_a_total", "h", Labels{"k": "v"}).Inc()
	reg.Histogram("diads_b_seconds", "h", nil, nil).Observe(0.2)
	out := RenderSnapshot(reg.Snapshot())
	for _, want := range []string{`diads_a_total{k="v"}`, "diads_b_seconds", "p95="} {
		if !strings.Contains(out, want) {
			t.Errorf("console render missing %q:\n%s", want, out)
		}
	}
}
