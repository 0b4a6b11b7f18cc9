package testbed

import (
	"fmt"
	"math"
	"sort"

	"diads/internal/exec"
	"diads/internal/metrics"
	"diads/internal/simtime"
)

// cpuPerRun is the CPU utilization a running query adds on the DB server.
const cpuPerRun = 0.25

// horizonMargin pads the monitoring horizon past the last activity. It
// is expressed in terms of the evidence-window padding and must stay
// strictly larger than one metrics.DefaultMonitorInterval: the final
// chunk's watermark is the horizon end, and an event for the very last
// run (read window ending rec.Stop + one interval) must still release
// from the gate — drivers have no separate end-of-stream flush.
//
//lint:allow readwindow emission-horizon margin sized to cover the last read window, not a read window itself
const horizonMargin = 2 * metrics.DefaultMonitorInterval

// timelineEvent is one chronological step of the simulation.
type timelineEvent struct {
	t    simtime.Time
	prio int // apply configuration changes before runs at the same time
	run  func() error
}

// Simulate plays the testbed's timeline: external loads are applied to
// the SAN model, then query runs and the scheduled Changes execute in
// chronological order; finally the monitoring pipeline
// samples every component's behaviour into the metric store. Simulate may
// only be called once per testbed.
func (tb *Testbed) Simulate() error {
	return tb.SimulateStream(0, nil)
}

// SimulateStream plays the same timeline in chunks, the testbed's online
// operating mode: after all events up to each chunk boundary have
// executed, the monitoring pipeline emits the samples for that chunk
// (monitoring lags execution, as in production) and onChunk is invoked
// with the boundary time so a streaming consumer — the monitor/service
// pipeline — can poll metrics and drain slowdown events "live". Runs
// themselves stream through exec.Engine.OnRunComplete the moment they
// finish. A chunk of 0 plays the whole timeline as one chunk. Like
// Simulate, it may only be called once per testbed. It is a loop over
// Stream's Next.
func (tb *Testbed) SimulateStream(chunk simtime.Duration, onChunk func(now simtime.Time) error) error {
	s := tb.Stream(chunk)
	for {
		now, done, err := s.Next()
		if err != nil {
			return err
		}
		if onChunk != nil {
			if err := onChunk(now); err != nil {
				return err
			}
		}
		if done {
			return nil
		}
	}
}

// Stream is the testbed's timeline played one chunk per Next call: the
// stepping form of SimulateStream, for a driver that advances many
// testbeds itself.
//
// Emission is aligned to the monitoring-interval grid and holds back
// incomplete intervals: each chunk emits only the monitoring intervals
// that have fully elapsed, and the trailing partial interval flushes
// with the final chunk. Two guarantees follow. First, the boundary time
// Next returns is a metric watermark — every sample with a timestamp at
// or before it has been emitted, and no future chunk can append one at
// or before it — which is what lets drivers pass it straight to
// monitor.Gate.Release. Second, the emitted sample set (and, with the
// sampler's per-series noise streams, every sample value) is
// byte-identical whatever the chunk size, including the single-chunk
// batch run, so diagnosis results cannot depend on chunking.
type Stream struct {
	tb       *Testbed
	chunk    simtime.Duration
	started  bool
	finished bool
	events   []timelineEvent
	next     int // first event not yet run
	loadEnd  simtime.Time
	boundary simtime.Time // end of the last chunk played
	emitted  simtime.Time // metrics are emitted through here
}

// Stream returns the testbed's timeline as a stepper over chunks of the
// given length (0: the whole timeline as one chunk). Nothing plays until
// the first Next, which fails if the testbed has been simulated before.
func (tb *Testbed) Stream(chunk simtime.Duration) *Stream {
	return &Stream{tb: tb, chunk: chunk}
}

// Next plays one chunk: every timeline event before the chunk boundary,
// then the chunk's metric emission. It returns the chunk's watermark and
// whether the timeline is done; a done stream sets the testbed's Horizon
// and must not be stepped again.
func (s *Stream) Next() (watermark simtime.Time, done bool, err error) {
	tb := s.tb
	if !s.started {
		if tb.simulated {
			return 0, false, fmt.Errorf("testbed: already simulated")
		}
		tb.simulated, s.started = true, true
		for _, l := range tb.Loads {
			for _, seg := range l.Segments() {
				tb.SAN.AddLoad(seg)
			}
			s.loadEnd = max(s.loadEnd, l.Window.End)
		}
		s.events = tb.timeline()
	}
	if s.finished {
		return 0, false, fmt.Errorf("testbed: stream already finished")
	}
	boundary := simtime.Time(math.Inf(1)) // chunk 0: the whole timeline
	if s.chunk > 0 {
		boundary = s.boundary.Add(s.chunk)
	}
	s.boundary = boundary
	for s.next < len(s.events) && s.events[s.next].t < boundary {
		if err := s.events[s.next].run(); err != nil {
			return 0, false, err
		}
		s.next++
	}
	stop := boundary
	if s.next == len(s.events) {
		if end := tb.activityEnd(s.loadEnd); end <= boundary {
			stop, done = end, true
		}
	}
	// Emit only fully-elapsed monitoring intervals; the final chunk
	// flushes the partial tail so the store matches a batch run's.
	cover := stop
	if !done {
		cover = tb.monitorGrid(stop)
	}
	if cover > s.emitted {
		tb.emitMetrics(simtime.NewInterval(s.emitted, cover))
		s.emitted = cover
	}
	if done {
		s.finished = true
		tb.Horizon = simtime.NewInterval(0, stop)
	}
	return stop, done, nil
}

// timeline assembles the chronologically sorted event list.
func (tb *Testbed) timeline() []timelineEvent {
	var events []timelineEvent
	runSeq := 0
	for _, qs := range tb.Schedules {
		for _, t := range qs.Times() {
			events = append(events, timelineEvent{t: t, prio: 1, run: func() error {
				return tb.runQuery(qs.Query, t, &runSeq)
			}})
		}
	}
	for _, ev := range tb.Changes {
		events = append(events, timelineEvent{t: ev.T, prio: 0, run: func() error { return tb.Apply(ev) }})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].prio < events[j].prio
	})
	return events
}

// monitorGrid floors t to the monitoring-interval grid (multiples of the
// sampler's interval from the simulation epoch): the point through which
// complete intervals can be emitted at a chunk boundary.
func (tb *Testbed) monitorGrid(t simtime.Time) simtime.Time {
	step := tb.Sampler.Interval
	if step <= 0 {
		step = metrics.DefaultMonitorInterval
	}
	return simtime.Time(math.Floor(float64(t)/float64(step)) * float64(step))
}

// activityEnd returns the monitoring horizon end: the last activity
// (external load or run) plus a margin.
func (tb *Testbed) activityEnd(loadEnd simtime.Time) simtime.Time {
	end := loadEnd
	// lastActivity, not a Runs scan: Retain may have trimmed records
	// whose Stop once defined the horizon end.
	if tb.lastActivity > end {
		end = tb.lastActivity
	}
	return end.Add(horizonMargin)
}

// runQuery optimizes and executes one scheduled run.
func (tb *Testbed) runQuery(query string, t simtime.Time, seq *int) error {
	p, err := tb.Opt.PlanQuery(query, tb.Stats, tb.Params)
	if err != nil {
		return err
	}
	*seq++
	runID := fmt.Sprintf("run-%s-%03d", query, *seq)
	rec, err := tb.Engine.Run(p, t, runID)
	if err != nil {
		return err
	}
	tb.Runs = append(tb.Runs, rec)
	if rec.Stop > tb.lastActivity {
		tb.lastActivity = rec.Stop
	}
	// The run occupies the server CPU while it executes.
	tb.CPULoad.Add("cpu", simtime.NewInterval(rec.Start, rec.Stop), cpuPerRun, runID)
	// Its activity rates become the database-level monitoring series.
	if dur := float64(rec.Duration()); dur > 0 {
		iv := simtime.NewInterval(rec.Start, rec.Stop)
		tb.dbAct.Add("blocksread", iv, rec.PhysIO/dur, runID)
		tb.dbAct.Add("bufferhits", iv, rec.CacheHit/dur, runID)
		tb.dbAct.Add("lockwait", iv, float64(rec.LockWait)/dur, runID)
		tb.dbAct.Add("idxscans", iv, float64(rec.IdxScans)/dur, runID)
		tb.dbAct.Add("seqscans", iv, float64(rec.SeqScans)/dur, runID)
	}
	return nil
}

// RunsFor returns the run history of one query in time order.
func (tb *Testbed) RunsFor(query string) []*exec.RunRecord {
	var out []*exec.RunRecord
	for _, r := range tb.Runs {
		if r.Query == query {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// emitMetrics runs the monitoring pipeline over one window. Streaming
// simulation calls it once per chunk with consecutive windows; batch
// simulation once with the full horizon. Windows must not overlap, since
// the store rejects out-of-order samples. The whole window's series land
// in the store in one write.
func (tb *Testbed) emitMetrics(iv simtime.Interval) {
	if iv.Length() <= 0 {
		return
	}
	tb.Sampler.Hold()
	defer tb.Sampler.Release()
	tb.SAN.Emit(tb.Store, tb.Sampler, iv, ServerDB)

	// Server metrics: CPU from the load timeline (exact interval means, as
	// a real agent's counters would report); memory mostly flat. Each
	// timeline key's window means come from one pass over its segments.
	wins := tb.Sampler.Windows(iv)
	means := tb.CPULoad.WindowMeans("cpu", wins, nil)
	tb.Sampler.RecordWindowMean(tb.Store, string(ServerDB), metrics.SrvCPUUsagePct, iv,
		func(i int, _ simtime.Interval) float64 { return 100 * minf(0.08+means[i], 1) })
	tb.Sampler.Record(tb.Store, string(ServerDB), metrics.SrvPhysMemoryPct, iv,
		func(simtime.Time) float64 { return 62 })
	tb.Sampler.Record(tb.Store, string(ServerDB), metrics.SrvProcesses, iv,
		func(simtime.Time) float64 { return 180 })

	// Database metrics: per-run activity rates plus lock-manager state.
	rec := func(metric metrics.Metric, key string) {
		means = tb.dbAct.WindowMeans(key, wins, means)
		tb.Sampler.RecordWindowMean(tb.Store, DBInstance, metric, iv,
			func(i int, _ simtime.Interval) float64 { return means[i] })
	}
	rec(metrics.DBBlocksRead, "blocksread")
	rec(metrics.DBBufferHits, "bufferhits")
	rec(metrics.DBLockWaitTime, "lockwait")
	rec(metrics.DBIndexScans, "idxscans")
	rec(metrics.DBSequentialScans, "seqscans")
	tb.Sampler.Record(tb.Store, DBInstance, metrics.DBLocksHeld, iv,
		func(t simtime.Time) float64 { return float64(tb.Locks.HeldAt(t)) })
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
