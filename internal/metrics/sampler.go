package metrics

import (
	"iter"

	"diads/internal/simtime"
)

// DefaultMonitorInterval is the production monitoring interval the paper
// cites as typical ("5 minutes or higher"), which is what averages out
// spikes and produces noisy data.
const DefaultMonitorInterval = 5 * simtime.Minute

// ReadWindow pads an activity window (a run's or operator's [start, stop]
// span, or a slowdown event's run-history span) by the monitoring
// interval on both sides. It is the single definition of the evidence
// window the diagnosis layers read: coarse series contribute their
// nearest samples, and the monitor's Gate holds an event until the
// emission watermark covers the padded window, so a diagnosis never
// races metric emission. Every window-padded metric read in the
// codebase must go through this function — a second copy of the padding
// arithmetic is how the watermark and the read window drift apart.
func ReadWindow(iv simtime.Interval) simtime.Interval {
	return simtime.NewInterval(
		iv.Start.Add(-DefaultMonitorInterval),
		iv.End.Add(DefaultMonitorInterval))
}

// TrueValueFunc reports the instantaneous "ground truth" value of a metric
// at simulated time t. The sampler integrates it over each monitoring
// interval; diagnosis code only ever sees the resulting averages.
type TrueValueFunc func(t simtime.Time) float64

// Sampler converts instantaneous component behaviour into the coarse,
// noisy series a production monitoring tool records.
//
// Measurement noise is drawn from a per-series random stream derived
// from (Seed, component, metric), never from one shared stream: a
// series' noise then depends only on its own sample count, so emitting
// the timeline in chunks of any size — or adding new series — produces
// byte-identical samples to a single batch emission. Samplers are not
// safe for concurrent use.
//
// Each series resolves once to a slot holding its noise stream and its
// store series, so a Record call costs one map lookup. Between Hold and
// Release the calls queue their runs, and Release writes them all in one
// store pass (a long Hold writes every maxQueued samples).
type Sampler struct {
	// Interval is the monitoring interval (default 5 minutes). The
	// evidence-window contract (ReadWindow) pads reads by
	// DefaultMonitorInterval regardless of this setting, so an interval
	// coarser than the default leaves run windows without samples —
	// keep overrides at or below DefaultMonitorInterval.
	Interval simtime.Duration
	// SubStep is the integration step used to average the true value
	// across an interval.
	SubStep simtime.Duration
	// NoiseSigma is the log-normal measurement-noise sigma applied to each
	// recorded sample (0 disables noise).
	NoiseSigma float64
	// Seed derives the per-series noise streams.
	Seed int64

	slots map[SeriesKey]*slot
	// run holds the queued runs' samples back to back; queue[i] ends at
	// queue[i].end. Both are reused across writes.
	run   []Sample
	queue []queuedRun
	store *Store // the store the queue is for
	held  bool   // a Hold is open
}

// slot is one series as the sampler writes it: its noise stream, and its
// store series together with the store it was resolved against. A series
// is never deleted from a store, so the pointer stays valid for as long
// as the store is the same one.
type slot struct {
	key   SeriesKey
	noise *simtime.Rand // created on first use with noise on
	store *Store
	ser   *series
}

type queuedRun struct {
	slot *slot
	end  int
}

// NewSampler returns a sampler with the production defaults: 5-minute
// intervals, 15-second integration steps, and the given noise level.
// The seed derives the per-series measurement-noise streams.
func NewSampler(noiseSigma float64, seed int64) *Sampler {
	return &Sampler{
		Interval:   DefaultMonitorInterval,
		SubStep:    15 * simtime.Second,
		NoiseSigma: noiseSigma,
		Seed:       seed,
	}
}

// slot returns one series' slot, creating it on first use.
func (sp *Sampler) slot(component string, metric Metric) *slot {
	k := SeriesKey{Component: component, Metric: metric}
	if sl, ok := sp.slots[k]; ok {
		return sl
	}
	if sp.slots == nil {
		sp.slots = make(map[SeriesKey]*slot)
	}
	sl := &slot{key: k}
	sp.slots[k] = sl
	return sl
}

// noise returns a slot's noise stream, or nil when noise is off. Record
// and RecordWindowMean resolve it once per call, not once per sample;
// the stream and its draw order are the same either way.
func (sp *Sampler) noise(sl *slot) *simtime.Rand {
	if sp.NoiseSigma <= 0 {
		return nil
	}
	if sl.noise == nil {
		sl.noise = simtime.NewRand(sp.Seed, "sampler/"+sl.key.String())
	}
	return sl.noise
}

// step returns the monitoring interval.
func (sp *Sampler) step() simtime.Duration {
	if sp.Interval <= 0 {
		return DefaultMonitorInterval
	}
	return sp.Interval
}

// windows yields the monitoring windows over iv with their ordinals:
// Interval-long windows anchored at iv.Start, the last one cut at iv.End.
// It is the one definition of the sampling grid Record, RecordWindowMean
// and Windows share.
func (sp *Sampler) windows(iv simtime.Interval) iter.Seq2[int, simtime.Interval] {
	step := sp.step()
	return func(yield func(int, simtime.Interval) bool) {
		for i, start := 0, iv.Start; start < iv.End; i, start = i+1, start.Add(step) {
			end := start.Add(step)
			if end > iv.End {
				end = iv.End
			}
			if !yield(i, simtime.NewInterval(start, end)) {
				return
			}
		}
	}
}

// Windows returns the monitoring windows Record and RecordWindowMean
// sample over iv, in order: the ordinal RecordWindowMean passes its
// function indexes this slice, so an emitter can compute per-window
// values once for several series.
func (sp *Sampler) Windows(iv simtime.Interval) []simtime.Interval {
	var out []simtime.Interval
	for _, w := range sp.windows(iv) {
		out = append(out, w)
	}
	return out
}

// sample is one window's value, jittered by the series' noise stream r
// (nil: noise off), timestamped at the window end.
func (sp *Sampler) sample(r *simtime.Rand, w simtime.Interval, v float64) Sample {
	if r != nil {
		v = r.Jitter(v, sp.NoiseSigma)
	}
	return Sample{T: w.End, V: v}
}

// Hold queues the runs of later Record and RecordWindowMean calls until
// Release, or until maxQueued samples wait. Holds do not nest.
func (sp *Sampler) Hold() { sp.held = true }

// Release closes the Hold and writes the queued runs.
func (sp *Sampler) Release() {
	sp.held = false
	sp.flush()
}

// begin returns the slot of a series about to be recorded into store,
// first writing any runs queued for another store.
func (sp *Sampler) begin(store *Store, component string, metric Metric) *slot {
	if store != sp.store {
		sp.flush()
		sp.store = store
	}
	return sp.slot(component, metric)
}

// maxQueued bounds the samples a Hold queues before it writes them
// early: a streaming chunk of every series of an instance queues a few
// hundred and lands in one write, while a whole-horizon batch emission
// writes every few thousand instead of buffering the horizon.
const maxQueued = 2048

// end queues the samples collected for sl since the previous run, and
// writes the queue at once unless a Hold is open and has room.
func (sp *Sampler) end(sl *slot) {
	sp.queue = append(sp.queue, queuedRun{sl, len(sp.run)})
	if !sp.held || len(sp.run) >= maxQueued {
		sp.flush()
	}
}

// flush writes the queued runs under one store lock, each checked for
// order before any of it is written. Out-of-order emission is a
// simulator bug, so a refused run panics like MustAppend — after the
// rest are written and the lock is released.
func (sp *Sampler) flush() {
	if len(sp.queue) == 0 {
		return
	}
	store := sp.store
	var refused error
	store.mu.Lock()
	start := 0
	for _, q := range sp.queue {
		sl := q.slot
		if sl.store != store || sl.ser == nil {
			sl.store, sl.ser = store, store.series[sl.key]
		}
		ser, err := store.appendRun(sl.key, sl.ser, sp.run[start:q.end])
		sl.ser = ser
		if err != nil && refused == nil {
			refused = err
		}
		start = q.end
	}
	store.unlock()
	sp.run, sp.queue, sp.store = sp.run[:0], sp.queue[:0], nil
	if refused != nil {
		panic(refused)
	}
}

// Record samples fn over [iv.Start, iv.End) and appends one sample per
// monitoring interval to store under (component, metric). Sample timestamps
// are the interval end points, matching how monitoring agents report. The
// sampling grid is anchored at iv.Start: callers emitting a timeline in
// chunks must pass windows starting on multiples of Interval (the
// testbed's emission watermark guarantees it), so chunked and batch
// emission produce identical sample sets. Every probe fn sees lies in
// [iv.Start, iv.End].
func (sp *Sampler) Record(store *Store, component string, metric Metric, iv simtime.Interval, fn TrueValueFunc) {
	sub := sp.SubStep
	if step := sp.step(); sub <= 0 || sub > step {
		sub = step / 10
	}
	sl := sp.begin(store, component, metric)
	r := sp.noise(sl)
	for _, w := range sp.windows(iv) {
		sp.run = append(sp.run, sp.sample(r, w, integrateMean(fn, w.Start, w.End, sub)))
	}
	sp.end(sl)
}

// WindowMeanFunc reports the exact time-average of a metric over w, the
// i-th monitoring window of the emission interval (Sampler.Windows);
// used for rate metrics whose averages are linear in the underlying load
// segments.
type WindowMeanFunc func(i int, w simtime.Interval) float64

// RecordWindowMean appends one sample per monitoring interval using exact
// window means instead of numeric integration. This matches how counters
// behave in real monitoring agents: a 3-second I/O burst still moves the
// interval's average by its exact share. The grid-alignment requirement
// of Record applies here too.
func (sp *Sampler) RecordWindowMean(store *Store, component string, metric Metric, iv simtime.Interval, fn WindowMeanFunc) {
	sl := sp.begin(store, component, metric)
	r := sp.noise(sl)
	for i, w := range sp.windows(iv) {
		sp.run = append(sp.run, sp.sample(r, w, fn(i, w)))
	}
	sp.end(sl)
}

// integrateMean averages fn over [start, end) with the given step using the
// midpoint rule, which is exact for the piecewise-constant load timelines
// the SAN performance model produces (as long as step divides the pieces).
func integrateMean(fn TrueValueFunc, start, end simtime.Time, step simtime.Duration) float64 {
	if end <= start {
		return fn(start)
	}
	var sum float64
	var n int
	for t := start; t < end; t = t.Add(step) {
		mid := t.Add(step / 2)
		if mid >= end {
			mid = t.Add(simtime.Duration(float64(end.Sub(t)) / 2))
		}
		sum += fn(mid)
		n++
	}
	if n == 0 {
		return fn(start)
	}
	return sum / float64(n)
}
