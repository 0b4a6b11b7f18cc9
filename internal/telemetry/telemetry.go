// Package telemetry is the self-observation layer of the reproduction:
// a dependency-free metrics registry (atomic counters, gauges,
// fixed-bucket histograms with quantile snapshots), a bounded span
// tracer that follows one trace ID from detection through diagnosis,
// a hand-rolled Prometheus text exposition (plus a validator for it),
// and a small HTTP server exposing /metrics, /healthz, /traces, and
// /debug/pprof while the daemon runs.
//
// Telemetry is a pure side channel: instruments are written from the
// hot paths with atomics only, nothing in the package is ever read back
// into a diagnosis or a rendered report, and the whole layer can be
// switched off (SetEnabled) without changing a single output byte —
// which is what the telemetry on/off parity regression pins.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family for the exposition.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Labels attaches dimensions to one series of a family (e.g. the module
// name on a wall-time histogram). Every distinct label set is its own
// series.
type Labels map[string]string

// canonical renders labels as a stable identity string: keys sorted,
// k="v" pairs joined by commas. The empty label set canonicalizes to "".
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// clone copies the label set so callers cannot mutate registered series.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Counter is a monotonically-increasing atomic counter.
type Counter struct {
	enabled *atomic.Bool
	v       atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 || !c.enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	enabled *atomic.Bool
	bits    atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.enabled.Load() {
		return
	}
	g.bits.Store(floatBits(v))
}

// Add adds delta atomically.
func (g *Gauge) Add(delta float64) {
	if g == nil || !g.enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

// seriesEntry is one (family, label set) series.
type seriesEntry struct {
	labels Labels
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	// fn is the CounterFunc / GaugeFunc callback; a pointer, so a freeze
	// can tell its own registration from one that replaced it.
	fn *func() float64
}

// family groups every series of one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]*seriesEntry // by canonical labels
	order  []string                // canonical labels in registration order
}

// Registry holds metric families and hands out instruments. All methods
// are safe for concurrent use; instrument writes are lock-free.
type Registry struct {
	enabled atomic.Bool
	mu      sync.Mutex
	fams    map[string]*family
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{fams: make(map[string]*family)}
	r.enabled.Store(true)
	return r
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every layer instruments
// against. cmd/diadsd serves it on /metrics.
func Default() *Registry { return defaultRegistry }

// SetEnabled switches instrument writes on or off. Disabled instruments
// are no-ops, which is how the telemetry on/off parity regression proves
// the layer is a pure side channel.
func (r *Registry) SetEnabled(v bool) { r.enabled.Store(v) }

// Reset drops every registered family. Intended for tests.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fams = make(map[string]*family)
}

// lookup returns (creating if needed) the series entry for
// (name, labels), enforcing one kind per family.
func (r *Registry) lookup(name, help string, kind Kind, labels Labels) *seriesEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*seriesEntry)}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	key := labels.canonical()
	se := f.series[key]
	if se == nil {
		se = &seriesEntry{labels: labels.clone()}
		f.series[key] = se
		f.order = append(f.order, key)
	}
	return se
}

// Counter returns the counter for (name, labels), creating it on first
// use. Repeated calls with the same identity return the same instrument.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	se := r.lookup(name, help, KindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if se.ctr == nil {
		se.ctr = &Counter{enabled: &r.enabled}
	}
	return se.ctr
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	se := r.lookup(name, help, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if se.gauge == nil {
		se.gauge = &Gauge{enabled: &r.enabled}
	}
	return se.gauge
}

// CounterFunc registers a callback-backed counter series (e.g. a
// lifetime total read at scrape time). Re-registering the same
// identity replaces the callback — the latest live object wins, which is
// what a daemon restarting its service expects.
//
// The registry outlives the objects its callbacks read, and a callback
// keeps whatever it captured reachable. The owner calls the returned
// freeze once that object is done: the series then reports the value it
// had at that moment and lets go of fn. Freezing a series a later
// registration has taken over does nothing.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) (freeze func()) {
	return r.setFunc(name, help, KindCounter, labels, fn)
}

// GaugeFunc registers a callback-backed gauge series (e.g. current queue
// depth). Re-registering the same identity replaces the callback; freeze
// is as for CounterFunc.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) (freeze func()) {
	return r.setFunc(name, help, KindGauge, labels, fn)
}

func (r *Registry) setFunc(name, help string, kind Kind, labels Labels, fn func() float64) (freeze func()) {
	se := r.lookup(name, help, kind, labels)
	r.mu.Lock()
	se.fn = &fn
	r.mu.Unlock()
	return func() {
		v := fn() // outside the lock, as Snapshot reads it
		final := func() float64 { return v }
		r.mu.Lock()
		defer r.mu.Unlock()
		if se.fn == &fn {
			se.fn = &final
		}
	}
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds on first use (nil bounds = DefBuckets).
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	se := r.lookup(name, help, KindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if se.hist == nil {
		se.hist = newHistogram(&r.enabled, bounds)
	}
	return se.hist
}

// SeriesSnapshot is one series' state at snapshot time.
type SeriesSnapshot struct {
	Labels Labels
	// Value holds counter and gauge readings.
	Value float64
	// Hist holds the histogram state (nil for counters and gauges).
	Hist *HistogramSnapshot
}

// MetricSnapshot is one family's state at snapshot time.
type MetricSnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesSnapshot
}

// Snapshot captures every family in deterministic order (families sorted
// by name, series by canonical labels). Callback-backed series are read
// outside the registry lock, so scrape-time callbacks may take their own
// locks without ordering against the registry's.
func (r *Registry) Snapshot() []MetricSnapshot {
	type pendingFn struct {
		fam, ser int
		fn       func() float64
	}
	var pend []pendingFn

	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]MetricSnapshot, 0, len(names))
	for _, name := range names {
		f := r.fams[name]
		ms := MetricSnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, key := range keys {
			se := f.series[key]
			ss := SeriesSnapshot{Labels: se.labels.clone()}
			switch {
			case se.fn != nil:
				pend = append(pend, pendingFn{fam: len(out), ser: len(ms.Series), fn: *se.fn})
			case se.ctr != nil:
				ss.Value = float64(se.ctr.Value())
			case se.gauge != nil:
				ss.Value = se.gauge.Value()
			case se.hist != nil:
				snap := se.hist.Snapshot()
				ss.Hist = &snap
			}
			ms.Series = append(ms.Series, ss)
		}
		out = append(out, ms)
	}
	r.mu.Unlock()

	for _, p := range pend {
		out[p.fam].Series[p.ser].Value = p.fn()
	}
	return out
}
