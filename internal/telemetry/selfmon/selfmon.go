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
// The latency stream is noisy in a way a query's is not: one diagnosis
// takes a few milliseconds, and a scheduler hiccup or a GC pause doubles
// it at random, while the cost also creeps up as the run history fills.
// So the monitor sees the median of each query's last smoothRuns wall
// times (a lone slow diagnosis moves it not at all), and an event is
// reported only when that median beats the baseline by noiseFloor as
// well as by the monitor's own factor and sigma. A diagnosis slower
// than the median by spikeFloor is past any jitter measured and goes to
// the monitor as it is.
//
// The loop is strictly observational: it reads wall-clock durations and
// writes only into its own store and monitor. Nothing here touches
// simulation time, diagnosis inputs, or report rendering, so enabling
// self-monitoring cannot move a single output byte.
package selfmon

import (
	"fmt"
	"slices"
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

// The noise model, chosen on diadsd -quiet -runs 160 -seed 42 (29 Q2
// diagnoses of 0.4–2.2 ms each, 20 runs alone on a two-core box and 30
// three at a time), where the monitor alone raises 1 to 13 events a
// lone run. The smoothed wall time rises at most 0.96 ms over its
// baseline as the run history fills (alone); a single diagnosis beat
// the median by at most 12.5 ms (three at a time).
const (
	smoothRuns = 5
	noiseFloor = 2 * time.Millisecond
	spikeFloor = 50 * time.Millisecond
)

// step is the logical-clock spacing between observed diagnoses. The
// dogfood timeline is synthetic: observation order provides the axis,
// step the spacing.
const step = simtime.Minute

// SelfMonitor implements service.SelfObserver. Safe for concurrent use —
// service workers call ObserveDiagnosis from many goroutines.
type SelfMonitor struct {
	store *metrics.Store
	mon   *monitor.Monitor

	mu     sync.Mutex
	clock  simtime.Time
	seq    int
	recent map[string]*recentWalls
	events int64 // reported by Drain

	observed *telemetry.Counter
	detected *telemetry.Counter
}

// New returns a self-monitor with its own store and a monitor with the
// defaults (6-run arming, 3-sigma + 1.4x threshold, Page-Hinkley drift
// detection) watching the smoothed latency stream. That monitor counts
// into no diads_monitor_* family: its raw detections, before the noise
// floor, are not product detections.
func New() *SelfMonitor {
	reg := telemetry.Default()
	return &SelfMonitor{
		store:  metrics.NewStore(),
		mon:    monitor.NewUncounted(monitor.Config{}),
		recent: make(map[string]*recentWalls),
		observed: reg.Counter("diads_self_diagnoses_observed_total",
			"Completed diagnoses observed by the dogfood self-monitor.", nil),
		detected: reg.Counter("diads_self_slowdown_events_total",
			"Slowdown events the self-monitor raised about diadsd's own diagnosis latency.", nil),
	}
}

// recentWalls is a ring of one query's latest wall times.
type recentWalls struct {
	walls [smoothRuns]time.Duration
	n     int // observed so far
}

// smoothed adds wall to the ring and returns what the monitor sees: the
// median of the ring, or wall itself when it beats that by spikeFloor.
func (r *recentWalls) smoothed(wall time.Duration) time.Duration {
	r.walls[r.n%smoothRuns] = wall
	r.n++
	sorted := r.walls
	k := min(r.n, smoothRuns)
	slices.Sort(sorted[:k])
	med := sorted[k/2]
	if wall-med > spikeFloor {
		return wall
	}
	return med
}

// ObserveDiagnosis ingests one completed diagnosis's wall time: it
// appends a sample to the self store and feeds a synthetic run record,
// as long as the smoothed wall time, to the self monitor. The record's
// timeline is the logical clock — starts and stops are strictly
// monotonic regardless of how wall times fluctuate, and both writes
// happen under the lock that advances it, so the store's in-order
// append invariant always holds.
func (s *SelfMonitor) ObserveDiagnosis(query string, wall time.Duration) {
	if s == nil {
		return
	}
	s.observed.Inc()
	wall = max(wall, time.Nanosecond)

	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recent[query]
	if r == nil {
		r = new(recentWalls)
		s.recent[query] = r
	}
	d := simtime.Duration(r.smoothed(wall).Seconds())
	s.seq++
	start := s.clock
	stop := start.Add(d)
	s.clock = stop.Add(step)

	s.store.MustAppend(SelfComponent, SelfMetric, metrics.Sample{T: stop, V: wall.Seconds()})
	s.mon.Observe(&exec.RunRecord{
		Query: "self:" + query,
		RunID: fmt.Sprintf("self-%06d", s.seq),
		Start: start,
		Stop:  stop,
	})
}

// Drain returns (and consumes) the self-monitor's pending slowdown
// events — diadsd's diagnoses of itself — bumping the detected counter.
// Events whose smoothed wall time beats the baseline by less than
// noiseFloor are dropped. Samples are stored before the run is
// observed: every window is covered.
func (s *SelfMonitor) Drain() []monitor.SlowdownEvent {
	out := slices.DeleteFunc(s.mon.Release(monitor.EndOfStream), func(ev monitor.SlowdownEvent) bool {
		return float64(ev.Duration-ev.Baseline) < noiseFloor.Seconds()
	})
	s.mu.Lock()
	s.events += int64(len(out))
	s.mu.Unlock()
	s.detected.Add(int64(len(out)))
	return out
}

// Store exposes the self store (the diagnosis wall-time series).
func (s *SelfMonitor) Store() *metrics.Store { return s.store }

// Stats returns the detector's lifetime counters, Events counting only
// the events Drain reported.
func (s *SelfMonitor) Stats() monitor.Stats {
	st := s.mon.Stats()
	s.mu.Lock()
	st.Events = s.events
	s.mu.Unlock()
	return st
}
