package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed step of a trace. A trace follows one slowdown event
// end to end: the monitor mints the trace ID when it builds the event,
// the service records submit-outcome, queue-wait, and diagnosis spans
// under it, each pipeline module's wall time becomes a span, and the
// fleet spans its evidence-time waves and learning folds.
type Span struct {
	TraceID  string        `json:"trace_id"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Tracer is a bounded ring of finished spans: recording never blocks and
// never grows without bound; old spans fall off. It is a diagnostic
// window (served on /traces), not a durable log.
type Tracer struct {
	enabled atomic.Bool
	mu      sync.Mutex
	buf     []Span
	next    int
	filled  bool
	total   int64
}

// NewTracer returns a tracer retaining up to capacity spans
// (default 512).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 512
	}
	t := &Tracer{buf: make([]Span, capacity)}
	t.enabled.Store(true)
	return t
}

var defaultTracer = NewTracer(0)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// SetEnabled switches span recording on or off.
func (t *Tracer) SetEnabled(v bool) { t.enabled.Store(v) }

// Record stores one finished span.
func (t *Tracer) Record(s Span) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	t.buf[t.next] = s
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.filled = true
	}
	t.total++
	t.mu.Unlock()
}

// Start begins a span; call End on the result to record it. The span
// is a value, so timing a step costs no allocation of its own.
func (t *Tracer) Start(traceID, name string) ActiveSpan {
	return ActiveSpan{t: t, span: Span{TraceID: traceID, Name: name, Start: time.Now()}}
}

// ActiveSpan is an in-flight span returned by Start.
type ActiveSpan struct {
	t    *Tracer
	span Span
}

// End finishes the span with the given attributes, records it, and
// returns its duration: the one wall-time reading a caller feeding a
// histogram as well needs.
func (a *ActiveSpan) End(attrs ...Attr) time.Duration {
	a.span.Duration = time.Since(a.span.Start)
	a.span.Attrs = attrs
	a.t.Record(a.span)
	return a.span.Duration
}

// Total returns the number of spans ever recorded (including those that
// have fallen off the ring).
func (t *Tracer) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Recent returns up to n retained spans, oldest first.
func (t *Tracer) Recent(n int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ordered []Span
	if t.filled {
		ordered = append(ordered, t.buf[t.next:]...)
		ordered = append(ordered, t.buf[:t.next]...)
	} else {
		ordered = append(ordered, t.buf[:t.next]...)
	}
	if n > 0 && len(ordered) > n {
		ordered = ordered[len(ordered)-n:]
	}
	return ordered
}

// Trace returns the retained spans of one trace ID, oldest first.
func (t *Tracer) Trace(id string) []Span {
	all := t.Recent(0)
	var out []Span
	for _, s := range all {
		if s.TraceID == id {
			out = append(out, s)
		}
	}
	return out
}
