// Package monitor is the online detection front-end of the reproduction's
// always-on operating mode. Where the paper's workflow (Figure 2) starts
// from an administrator noticing a slow query, the monitor watches the
// stream of completed runs itself: it maintains an incremental
// per-query baseline — a ring-buffered history with online mean/variance
// and Page-Hinkley change-point detection, never re-scanning the full
// history — and emits typed SlowdownEvents the moment a run degrades
// beyond the configured threshold. Events carry a labeled run-history
// snapshot, so a downstream diagnosis worker has everything Module PD
// onwards needs without touching the monitor again.
package monitor

import (
	"fmt"
	"math"
	"sync"

	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/telemetry"
)

// EventKind classifies how a slowdown was detected.
type EventKind string

const (
	// KindThreshold marks a single run exceeding the baseline by the
	// configured factor and sigma multiple.
	KindThreshold EventKind = "threshold"
	// KindChangePoint marks a sustained drift caught by the Page-Hinkley
	// test before any single run tripped the threshold.
	KindChangePoint EventKind = "change-point"
)

// SlowdownEvent is one detected degradation of a query, self-contained
// enough to diagnose: it snapshots the ring-buffered run history with
// satisfactory/unsatisfactory labels in the form diag.Input consumes.
type SlowdownEvent struct {
	Query string
	RunID string
	Kind  EventKind
	// TraceID identifies the event across the whole stack: the service
	// tags its submit-outcome, queue-wait, and diagnosis spans with it,
	// and the resulting pipeline trace carries it too. It is derived
	// deterministically from the offending run (never random), so traces
	// are stable per seed and reports stay byte-identical.
	TraceID string
	// Instance names the database instance the event came from. The
	// monitor itself leaves it empty (it watches a single instance); the
	// fleet layer tags events with the instance ID while fanning many
	// monitors into one shared diagnosis service, so job deduplication
	// and incident identity stay per-instance.
	Instance string
	// At is when the offending run completed.
	At simtime.Time
	// Duration is the offending run's time; Baseline the sliding-window
	// mean and Sigma its standard deviation at detection time.
	Duration, Baseline, Sigma simtime.Duration
	// Factor is Duration / Baseline.
	Factor float64
	// Window spans the snapshot's runs: from the earliest remembered
	// run's start to the offending run's stop.
	Window simtime.Interval
	// ReadWindow is the evidence window of the event — Window padded by
	// the monitoring interval on both sides (metrics.ReadWindow). It is
	// the single contract tying detection to diagnosis: every metric
	// read a diagnosis of this event performs lies inside it, the Gate
	// holds the event until the emission watermark covers its end, and
	// the diagnosis service deduplicates jobs by it.
	ReadWindow simtime.Interval
	// Runs is the history snapshot (baseline runs plus recent anomalous
	// ones, in time order) and Satisfactory its labels.
	Runs         []*exec.RunRecord
	Satisfactory map[string]bool
}

// String implements fmt.Stringer.
func (ev SlowdownEvent) String() string {
	q := ev.Query
	if ev.Instance != "" {
		q = ev.Instance + "/" + ev.Query
	}
	return fmt.Sprintf("%s %s %s: %s vs baseline %s (%.2fx, %d-run window)",
		ev.At.Clock(), q, ev.Kind, ev.Duration, ev.Baseline, ev.Factor, len(ev.Runs))
}

// Config tunes detection.
type Config struct {
	// History is the per-query ring capacity (default 32 runs).
	History int
	// MinRuns arms detection only after this many baseline runs
	// (default 6; at least diag.MinSatisfactory, the workflow's floor).
	MinRuns int
	// SigmaK is the sigma multiple a run must exceed (default 3).
	SigmaK float64
	// MinFactor is the minimum slowdown ratio over the baseline mean
	// (default 1.4), guarding against sigma collapsing on quiet streams.
	MinFactor float64
	// PHDelta is the Page-Hinkley tolerated drift fraction (default 0.05).
	PHDelta float64
	// PHLambda is the Page-Hinkley detection threshold in cumulative
	// relative-drift units (default 1.0).
	PHLambda float64
}

func (c Config) withDefaults() Config {
	if c.History <= 0 {
		c.History = 32
	}
	if c.MinRuns <= 0 {
		c.MinRuns = 6
	}
	if c.MinRuns < diag.MinSatisfactory {
		c.MinRuns = diag.MinSatisfactory
	}
	if c.SigmaK <= 0 {
		c.SigmaK = 3
	}
	if c.MinFactor <= 0 {
		c.MinFactor = 1.4
	}
	if c.PHDelta <= 0 {
		c.PHDelta = 0.05
	}
	if c.PHLambda <= 0 {
		c.PHLambda = 1.0
	}
	return c
}

// histEntry is one remembered run plus its label.
type histEntry struct {
	rec *exec.RunRecord
	sat bool
}

// queryState is the incremental state of one query's stream.
type queryState struct {
	hist []histEntry // the last History runs, oldest first
	base *baseline   // sliding stats over satisfactory runs only
}

// Stats are the monitor's lifetime counters.
type Stats struct {
	Observed int64 // runs ingested
	Events   int64 // events emitted
	// Undiagnosable counts degraded runs that raised no event: the history
	// ring no longer held diag.MinSatisfactory satisfactory runs.
	Undiagnosable int64
	Queries       int // distinct queries tracked
}

// Monitor ingests completed runs (attach Observe to
// exec.Engine.OnRunComplete) and holds the SlowdownEvents it detects in
// its own Gate until Release is called with a watermark that covers
// them. All methods are safe for concurrent use.
type Monitor struct {
	cfg    Config
	mu     sync.Mutex
	states map[string]*queryState
	gate   Gate
	sink   func(SlowdownEvent)
	stats  Stats
	tel    monitorTelemetry
}

// monitorTelemetry holds the layer's shared instruments: every monitor
// in the process (each fleet instance runs its own) increments the same
// fleet-wide counters; a NewUncounted monitor's are nil, and write
// nothing. Telemetry is a side channel — Stats stays the
// per-monitor source of truth.
type monitorTelemetry struct {
	observed      *telemetry.Counter
	threshold     *telemetry.Counter
	changePoint   *telemetry.Counter
	undiagnosable *telemetry.Counter
}

func newMonitorTelemetry() monitorTelemetry {
	reg := telemetry.Default()
	events := func(kind EventKind) *telemetry.Counter {
		return reg.Counter("diads_monitor_slowdown_events_total",
			"Slowdown events emitted by run monitors, by detection kind.",
			telemetry.Labels{"kind": string(kind)})
	}
	return monitorTelemetry{
		observed: reg.Counter("diads_monitor_runs_observed_total",
			"Completed query runs ingested by run monitors.", nil),
		threshold:   events(KindThreshold),
		changePoint: events(KindChangePoint),
		undiagnosable: reg.Counter("diads_monitor_undiagnosable_runs_total",
			"Degraded runs that raised no event: too few satisfactory runs left in the history to diagnose against.", nil),
	}
}

// New returns a monitor whose sink is its own gate.
func New(cfg Config) *Monitor {
	m := NewUncounted(cfg)
	m.tel = newMonitorTelemetry()
	return m
}

// NewUncounted is New without the diads_monitor_* counters, for a
// stream that is not a product workload: the self-monitor watches the
// diagnoser's own latency with one, filters its events through a noise
// floor and counts what is left into its own diads_self_* families.
func NewUncounted(cfg Config) *Monitor {
	m := &Monitor{
		cfg:    cfg.withDefaults(),
		states: make(map[string]*queryState),
	}
	m.sink = m.gate.Add
	return m
}

// SetSink points the one delivery path — Observe calls the sink,
// synchronously and losslessly — at the caller instead of the monitor's
// own gate. A caller that keeps a Gate of its own passes a closure over
// its Add and releases from it; the monitor's Release and Pending then
// stay empty. Set it before the first Observe.
func (m *Monitor) SetSink(fn func(SlowdownEvent)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sink = fn
}

// EndOfStream is the watermark of a stream that has ended: every metric
// it will ever emit is in the store, so whatever is still held releases.
const EndOfStream = simtime.Time(math.MaxFloat64)

// Release returns, in arrival order, every held detection the watermark
// covers (Gate.Release); it allocates nothing when none is ready.
func (m *Monitor) Release(watermark simtime.Time) []SlowdownEvent {
	return m.gate.Release(watermark)
}

// Pending returns the number of detections held for a later watermark.
func (m *Monitor) Pending() int { return m.gate.Pending() }

// Stats returns the lifetime counters.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Queries = len(m.states)
	return st
}

// LowWatermark returns the oldest evidence time any diagnosis of this
// monitor's detections can still read, and whether there is one at all.
// Events not yet minted snapshot the per-query history ring, so their
// ReadWindow starts no earlier than the padded Start of the oldest
// remembered run across all queries; events minted but still held carry
// their whole ReadWindow (Gate.LowWatermark). Metric samples and run
// records older than the minimum of the two can never be read by a
// diagnosis not already released; retention truncates against it.
func (m *Monitor) LowWatermark() (simtime.Time, bool) {
	lw, found := m.gate.LowWatermark()
	m.mu.Lock()
	defer m.mu.Unlock()
	oldest := EndOfStream
	for _, st := range m.states {
		if len(st.hist) > 0 {
			oldest = min(oldest, st.hist[0].rec.Start)
		}
	}
	if oldest == EndOfStream {
		return lw, found
	}
	// Pad through the one evidence-window contract, never hand-derived: a
	// future event whose Window starts here reads its ReadWindow. The pad
	// is monotone, so padding the minimum is the minimum of the pads.
	if padded := metrics.ReadWindow(simtime.NewInterval(oldest, oldest)).Start; !found || padded < lw {
		lw, found = padded, true
	}
	return lw, found
}

// Observe ingests one completed run: O(1) baseline update plus, when the
// run (or the accumulated drift) degrades past the thresholds, one event.
// It is the callback to hang on exec.Engine.OnRunComplete.
func (m *Monitor) Observe(rec *exec.RunRecord) {
	if rec == nil {
		return
	}
	m.tel.observed.Inc()
	m.mu.Lock()
	m.stats.Observed++
	st := m.states[rec.Query]
	if st == nil {
		st = &queryState{
			hist: make([]histEntry, 0, m.cfg.History),
			base: newBaseline(m.cfg.History),
		}
		m.states[rec.Query] = st
	}

	dur := float64(rec.Duration())
	mean, sigma, n := st.base.mean(), st.base.std(), st.base.count()
	armed := n >= m.cfg.MinRuns

	kind := EventKind("")
	elevated := false
	if armed && dur > mean*m.cfg.MinFactor && dur > mean+m.cfg.SigmaK*sigma {
		kind = KindThreshold
	} else if armed {
		// Page-Hinkley catches sustained drifts too small for the
		// threshold; while its accumulator is elevated the baseline
		// freezes so the drift is judged against the pre-drift regime.
		var detected bool
		detected, elevated = st.base.pageHinkley(dur, m.cfg.PHDelta, m.cfg.PHLambda)
		if detected {
			kind = KindChangePoint
		}
	}

	sat := kind == ""
	if sat && !elevated {
		// Only satisfactory runs feed the baseline, so a degraded regime
		// cannot poison the reference it is judged against.
		st.base.push(dur)
	}
	// A full ring drops its oldest run in place, so the array never
	// holds more than History runs and keeps none it evicted reachable.
	if n := len(st.hist); n == m.cfg.History {
		copy(st.hist, st.hist[1:])
		st.hist[n-1] = histEntry{rec: rec, sat: sat}
	} else {
		st.hist = append(st.hist, histEntry{rec: rec, sat: sat})
	}

	if kind == "" {
		m.mu.Unlock()
		return
	}
	if satisfactory(st.hist) < diag.MinSatisfactory {
		// A long degraded regime has pushed the baseline runs out of the
		// ring: the snapshot could not pass diag's input validation, so
		// the run is remembered and counted but mints nothing.
		m.stats.Undiagnosable++
		m.mu.Unlock()
		m.tel.undiagnosable.Inc()
		return
	}
	ev := m.buildEvent(rec, st, kind, dur, mean, sigma)
	m.stats.Events++
	sink := m.sink
	m.mu.Unlock()

	if kind == KindThreshold {
		m.tel.threshold.Inc()
	} else {
		m.tel.changePoint.Inc()
	}
	sink(ev)
}

// satisfactory counts the satisfactory runs in a history snapshot.
func satisfactory(hist []histEntry) int {
	n := 0
	for _, h := range hist {
		if h.sat {
			n++
		}
	}
	return n
}

// Gate defers slowdown events until the monitoring pipeline's watermark
// has passed their evidence window. The monitor emits an event the
// moment the offending run completes, but a run can finish inside a
// chunk whose metrics are not yet emitted; diagnosing then would read a
// half-written window and make results timing-dependent. Every monitor
// holds its detections in one (Monitor.Release); drivers submit only
// what Release returns for the current watermark (in a chunked
// simulation, the chunk boundary onChunk reports).
type Gate struct {
	mu      sync.Mutex
	pending []SlowdownEvent
}

// Add defers an event until its read window is fully covered.
func (g *Gate) Add(ev SlowdownEvent) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pending = append(g.pending, ev)
}

// Release returns, in arrival order, every deferred event whose
// ReadWindow ends at or before the watermark — the emission watermark's
// evidence-window contract: a released event's diagnosis reads metrics
// only inside its ReadWindow, so its result can never depend on samples
// a later chunk emits.
//
// The boundary is inclusive: an event whose ReadWindow ends exactly at
// the watermark is released. That is sound because the watermark
// guarantees every sample with timestamp <= watermark has been emitted,
// while read windows are half-open — a window ending at the watermark
// reads only samples strictly before it.
func (g *Gate) Release(watermark simtime.Time) []SlowdownEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	var ready []SlowdownEvent
	kept := g.pending[:0]
	for _, ev := range g.pending {
		if ev.ReadWindow.End <= watermark {
			ready = append(ready, ev)
		} else {
			kept = append(kept, ev)
		}
	}
	// The tail still holds the released events: clear it, so the gate
	// keeps no run snapshot it has handed on.
	clear(g.pending[len(kept):])
	g.pending = kept
	return ready
}

// LowWatermark returns the earliest ReadWindow start among deferred
// events, and whether any events are pending. Events in the gate have
// been minted but not yet diagnosed: their whole read windows are still
// future evidence, so retention must not truncate below the minimum.
func (g *Gate) LowWatermark() (simtime.Time, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var oldest simtime.Time
	found := false
	for _, ev := range g.pending {
		if !found || ev.ReadWindow.Start < oldest {
			oldest, found = ev.ReadWindow.Start, true
		}
	}
	return oldest, found
}

// Pending returns the number of deferred events.
func (g *Gate) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending)
}

// buildEvent snapshots the query's history into a self-contained event.
// Callers hold the mutex.
func (m *Monitor) buildEvent(rec *exec.RunRecord, st *queryState, kind EventKind, dur, mean, sigma float64) SlowdownEvent {
	runs := make([]*exec.RunRecord, 0, len(st.hist))
	labels := make(map[string]bool, len(st.hist))
	winStart := rec.Start
	for _, h := range st.hist {
		runs = append(runs, h.rec)
		labels[h.rec.RunID] = h.sat
		if h.rec.Start < winStart {
			winStart = h.rec.Start
		}
	}
	factor := 0.0
	if mean > 0 {
		factor = dur / mean
	}
	window := simtime.NewInterval(winStart, rec.Stop)
	return SlowdownEvent{
		Query: rec.Query,
		RunID: rec.RunID,
		Kind:  kind,
		// Deterministic per (query, run, kind): the same seed always
		// mints the same trace IDs, so span streams are comparable
		// across runs and nothing downstream can pick up entropy.
		TraceID:      fmt.Sprintf("%s/%s/%s", rec.Query, rec.RunID, kind),
		At:           rec.Stop,
		Duration:     simtime.Duration(dur),
		Baseline:     simtime.Duration(mean),
		Sigma:        simtime.Duration(sigma),
		Factor:       factor,
		Window:       window,
		ReadWindow:   metrics.ReadWindow(window),
		Runs:         runs,
		Satisfactory: labels,
	}
}
