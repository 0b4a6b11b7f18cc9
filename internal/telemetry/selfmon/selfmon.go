// Package selfmon closes the dogfood loop: the diagnoser's own
// per-diagnosis wall times become a monitored workload. Every completed
// diagnosis the service reports (through service.SelfObserver) is turned
// into a synthetic run record on a logical clock, written into a
// metrics.Store time series, and fed to a dedicated monitor.Monitor —
// the same Page-Hinkley/threshold detector that watches simulated
// queries. When diadsd's diagnosis latency degrades (a cold cache, a
// saturated worker pool, an overgrown symptoms database), the monitor
// raises an ordinary SlowdownEvent about diadsd itself, surfaced through
// Drain for the daemon to log and count.
//
// The loop is strictly observational: it reads wall-clock durations and
// writes only into its own store and monitor. Nothing here touches
// simulation time, diagnosis inputs, or report rendering, so enabling
// self-monitoring cannot move a single output byte.
package selfmon

import (
	"fmt"
	"sync"
	"time"

	"diads/internal/exec"
	"diads/internal/metrics"
	"diads/internal/monitor"
	"diads/internal/simtime"
	"diads/internal/telemetry"
)

// SelfMetric is the store series every observation appends to, one
// series per observed query on the SelfComponent.
const SelfMetric = metrics.Metric("Diagnosis Wall Time")

// SelfComponent is the store component the series hang off — the
// diagnoser itself, as if it were one more monitored deployment.
const SelfComponent = "diadsd"

// Config tunes the self-monitor.
type Config struct {
	// Step is the logical-clock spacing between observed diagnoses
	// (default 1 minute). The dogfood timeline is synthetic: observation
	// order provides the axis, Step the spacing.
	Step simtime.Duration
	// Monitor tunes the detector watching the latency stream. The zero
	// value uses monitor defaults (6-run arming, 3-sigma + 1.4x
	// threshold, Page-Hinkley drift detection).
	Monitor monitor.Config
}

// SelfMonitor implements service.SelfObserver. Safe for concurrent use —
// service workers call ObserveDiagnosis from many goroutines.
type SelfMonitor struct {
	cfg   Config
	store *metrics.Store
	mon   *monitor.Monitor

	mu    sync.Mutex
	clock simtime.Time
	seq   int

	observed *telemetry.Counter
	detected *telemetry.Counter
}

// New returns a self-monitor with its own store and monitor.
func New(cfg Config) *SelfMonitor {
	if cfg.Step <= 0 {
		cfg.Step = simtime.Minute
	}
	reg := telemetry.Default()
	return &SelfMonitor{
		cfg:   cfg,
		store: metrics.NewStore(),
		mon:   monitor.New(cfg.Monitor),
		observed: reg.Counter("diads_self_diagnoses_observed_total",
			"Completed diagnoses observed by the dogfood self-monitor.", nil),
		detected: reg.Counter("diads_self_slowdown_events_total",
			"Slowdown events the self-monitor raised about diadsd's own diagnosis latency.", nil),
	}
}

// ObserveDiagnosis ingests one completed diagnosis's wall time: it
// appends a sample to the self store and feeds a synthetic run record to
// the self monitor. The record's timeline is the logical clock — starts
// and stops are strictly monotonic regardless of how wall times
// fluctuate, so the store's in-order append invariant always holds.
func (s *SelfMonitor) ObserveDiagnosis(query string, wall time.Duration) {
	if s == nil {
		return
	}
	s.observed.Inc()
	d := simtime.Duration(wall.Seconds())
	if d <= 0 {
		d = simtime.Duration(1e-9)
	}

	s.mu.Lock()
	s.seq++
	start := s.clock
	stop := start.Add(d)
	s.clock = stop.Add(s.cfg.Step)
	runID := fmt.Sprintf("self-%06d", s.seq)
	s.mu.Unlock()

	s.store.MustAppend(SelfComponent, SelfMetric, metrics.Sample{T: stop, V: wall.Seconds()})
	s.mon.Observe(&exec.RunRecord{
		Query: "self:" + query,
		RunID: runID,
		Start: start,
		Stop:  stop,
	})
}

// Drain returns (and consumes) the self-monitor's pending slowdown
// events — diadsd's diagnoses of itself — bumping the detected counter.
// Samples are stored before the run is observed: every window is covered.
func (s *SelfMonitor) Drain() []monitor.SlowdownEvent {
	out := s.mon.Release(monitor.EndOfStream)
	s.detected.Add(int64(len(out)))
	return out
}

// Store exposes the self store (the diagnosis wall-time series).
func (s *SelfMonitor) Store() *metrics.Store { return s.store }

// Stats returns the detector's lifetime counters.
func (s *SelfMonitor) Stats() monitor.Stats { return s.mon.Stats() }
