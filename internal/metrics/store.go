package metrics

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"diads/internal/simtime"
	"diads/internal/telemetry"
)

// Sample is one monitored observation: the value of a metric on a
// component, averaged over the monitoring interval ending at T.
type Sample struct {
	T simtime.Time
	V float64
}

// SeriesKey identifies one time series in the store.
type SeriesKey struct {
	Component string
	Metric    Metric
}

// String implements fmt.Stringer.
func (k SeriesKey) String() string {
	return k.Component + "/" + string(k.Metric)
}

// compare orders keys by component, then metric — the store's index
// order, and the order Keys, Components and MetricsFor report.
func (k SeriesKey) compare(o SeriesKey) int {
	if c := cmp.Compare(k.Component, o.Component); c != 0 {
		return c
	}
	return cmp.Compare(k.Metric, o.Metric)
}

// segmentSize is the number of samples per storage segment. Truncation
// frees memory a whole segment at a time, leaving up to one segment of
// slack per series, so a segment must be small against the horizon
// retention serves: the monitor's 32-run ring of a 30-minute query is 16
// simulated hours, and 64 samples at the 5-minute monitoring interval
// are 5.3 — a third of it. Each segment costs one allocation, its value
// array, and one more if its samples leave the time grid it opened on.
const segmentSize = 64

// checkpoints is the number of prefix sums a segment carries inline: one
// before every stride-th sample, the stride the least power of two that
// needs no more (8 for a 64-slot segment).
const checkpoints = 8

// Process-wide retention accounting, exposed as callback-backed
// instruments: per-store registration is infeasible at fleet scale
// (thousands of stores), and the budget that matters — live heap — is a
// process property anyway.
var (
	liveSamples    atomic.Int64
	truncatedTotal atomic.Int64
)

func init() {
	reg := telemetry.Default()
	reg.GaugeFunc("diads_store_samples_live",
		"samples currently resident across all metric stores", nil,
		func() float64 { return float64(liveSamples.Load()) })
	reg.CounterFunc("diads_store_truncated_total",
		"samples dropped by retention truncation across all metric stores", nil,
		func() float64 { return float64(truncatedTotal.Load()) })
}

// TruncatedTotal reports the process-wide count of samples dropped by
// retention truncation — the number behind the
// diads_store_truncated_total instrument, exported so tests can assert
// a retention-enabled run actually truncated (parity alone would pass
// vacuously if retention never fired).
func TruncatedTotal() int64 { return truncatedTotal.Load() }

// segment is one fixed-capacity run of a series; it is never empty. A
// series sampled on a fixed interval stores only its values, 8 bytes a
// sample: sample j's time is gridTime(t0, dt, j), and append keeps a
// sample on that grid only when the expression reproduces its T bit for
// bit. The first sample that leaves the grid moves the whole segment off
// it (leaveGrid): the value array is reallocated at twice the capacity
// and the times go in its upper half, 16 bytes a sample, with dt set
// negative to mark it — no grid steps backwards. Readers branch on that
// once per segment. Keeping the times inside the value array, not in a
// field of their own, holds the header at 112 bytes; a series' list
// holds exactly its segments (append grows it one slot at a time), so a
// day's five segments are one 576-byte size class.
//
// Its checkpoints are ABSOLUTE prefix sums — anchored to the series
// origin, not the segment start — each the running sum append held just
// before the sample it marks, so a sum replayed from one adds the same
// values in the same order append did and has the same bits. Window
// aggregates computed after older segments are dropped thus subtract
// exactly the same floating-point values they did before, making
// truncation bit-invisible to every surviving window.
type segment struct {
	start  int                  // absolute index of vals[0] within the series
	t0, dt simtime.Time         // the grid: sample j at gridTime(t0, dt, j); dt < 0 once off it
	vals   []float64            // off the grid, sample j's time is vals[:cap][cap/2+j]
	ck     [checkpoints]float64 // ck[c]: Σ V of the series before vals[c<<shift()]
}

// gridTime is the time of sample j on a grid from t0 in steps of dt. The
// product is converted before the addition so no platform fuses the two
// into one rounding: append and every reader must form the same bits.
func gridTime(t0, dt simtime.Time, j int) simtime.Time {
	return t0 + simtime.Time(float64(j)*float64(dt))
}

// sameTime reports whether two times have the same bits (-0 is not 0).
func sameTime(a, b simtime.Time) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// offGrid reports whether the segment keeps its times.
func (seg *segment) offGrid() bool { return seg.dt < 0 }

// size returns the segment's capacity in samples.
func (seg *segment) size() int {
	if seg.offGrid() {
		return cap(seg.vals) / 2
	}
	return cap(seg.vals)
}

// shift is log2 of the segment's checkpoint stride, from its capacity.
func (seg *segment) shift() int { return bits.Len(uint(seg.size()-1) / checkpoints) }

// times returns an off-grid segment's times, parallel to vals.
func (seg *segment) times() []float64 {
	c := cap(seg.vals) / 2
	return seg.vals[c : c+len(seg.vals)]
}

// time returns the time of sample j.
func (seg *segment) time(j int) simtime.Time {
	if seg.offGrid() {
		return simtime.Time(seg.times()[j])
	}
	return gridTime(seg.t0, seg.dt, j)
}

// lastT returns the time of the segment's newest sample.
func (seg *segment) lastT() simtime.Time { return seg.time(len(seg.vals) - 1) }

// onGrid reports whether sample j's time t lies on the grid, bit for
// bit. Samples 0 and 1 fix the grid (startGrid).
func (seg *segment) onGrid(j int, t simtime.Time) bool {
	if j < 2 {
		return seg.startGrid(j, t)
	}
	return sameTime(gridTime(seg.t0, seg.dt, j), t)
}

// startGrid fixes the grid from sample j < 2 at time t: sample 0 sets
// t0, sample 1 sets dt — which must not be NaN, and must leave sample 0
// where it was, which a non-finite step does not. It reports whether t
// lies on the grid it fixed.
func (seg *segment) startGrid(j int, t simtime.Time) bool {
	t0, dt := t, simtime.Time(0)
	if j == 1 {
		t0, dt = seg.t0, t-seg.t0
		if !(dt >= 0) || !sameTime(gridTime(t0, dt, 0), t0) {
			return false
		}
	}
	if !sameTime(gridTime(t0, dt, j), t) {
		return false
	}
	seg.t0, seg.dt = t0, dt
	return true
}

// leaveGrid moves the segment off its grid: the values are copied into
// an array of twice the capacity, and the times so far, which the grid
// reproduced exactly, are written into its upper half.
func (seg *segment) leaveGrid() {
	c, n := cap(seg.vals), len(seg.vals)
	buf := make([]float64, 2*c)
	copy(buf, seg.vals)
	for j := range n {
		buf[c+j] = float64(gridTime(seg.t0, seg.dt, j))
	}
	seg.vals, seg.dt = buf[:n], -1
}

// irregular reports whether the segment's times fit no one grid. The
// segment after such a one opens off the grid: a series whose agent
// jitters, or posts in bursts with gaps between, would otherwise pay
// every segment's first break with a second allocation.
func (seg *segment) irregular() bool {
	if !seg.offGrid() {
		return false
	}
	var g segment
	for j, t := range seg.times() {
		if !g.onGrid(j, simtime.Time(t)) {
			return true
		}
	}
	return false
}

// search returns the in-segment offset of the first sample with T >= t,
// or len(vals) if there is none. On the grid that is arithmetic: the
// quotient (t-t0)/dt lands within a sample or two of the answer, and the
// grid times themselves — non-decreasing in j — settle it exactly.
func (seg *segment) search(t simtime.Time) int {
	n := len(seg.vals)
	if seg.offGrid() {
		ts := seg.times()
		return sort.Search(n, func(i int) bool { return simtime.Time(ts[i]) >= t })
	}
	t0, dt := seg.t0, seg.dt
	j := 0
	// A zero step divides to ±Inf or NaN; both clamp.
	if q := float64((t - t0) / dt); q >= float64(n) {
		j = n
	} else if q > 0 {
		j = int(math.Ceil(q))
	}
	for j > 0 && gridTime(t0, dt, j-1) >= t {
		j--
	}
	for j < n && !(gridTime(t0, dt, j) >= t) {
		j++
	}
	return j
}

// appendSamples appends samples [a, b) of the segment to dst.
func (seg *segment) appendSamples(dst []Sample, a, b int) []Sample {
	if seg.offGrid() {
		ts := seg.times()
		for j, v := range seg.vals[a:b] {
			dst = append(dst, Sample{T: simtime.Time(ts[a+j]), V: v})
		}
		return dst
	}
	t0, dt := seg.t0, seg.dt
	for j, v := range seg.vals[a:b] {
		dst = append(dst, Sample{T: gridTime(t0, dt, a+j), V: v})
	}
	return dst
}

// cumBefore returns the absolute prefix sum before vals[j]: the nearest
// checkpoint at or below j plus at most stride-1 additions.
func (seg *segment) cumBefore(j int) float64 {
	sh := seg.shift()
	sum := seg.ck[j>>sh]
	for _, v := range seg.vals[j>>sh<<sh : j] {
		sum += v
	}
	return sum
}

// series holds one time series as a list of segments carrying prefix-sum
// checkpoints, so any window mean is a few binary searches, two short
// replays and a subtraction instead of a scan. Appends stay O(1)
// amortized, which is what lets the online monitor query baselines on
// every new sample without re-reading history. Truncation drops whole
// leading segments; the survivors' checkpoints keep the absolute
// anchoring, and tail carries the running sum past them all.
type series struct {
	dropped int     // absolute index of the first retained sample
	tail    float64 // Σ V over every sample appended, dropped ones included
	segs    []segment
}

// live returns the number of retained samples.
func (ser *series) live() int {
	if len(ser.segs) == 0 {
		return 0
	}
	last := &ser.segs[len(ser.segs)-1]
	return last.start + len(last.vals) - ser.dropped
}

// total returns the absolute sample count, dropped samples included.
// Absolute indices in [dropped, total) address retained samples.
func (ser *series) total() int { return ser.dropped + ser.live() }

// locate returns the segment holding the retained sample at absolute
// index abs and its in-segment offset. abs must be in [dropped, total).
func (ser *series) locate(abs int) (*segment, int) {
	si := sort.Search(len(ser.segs), func(i int) bool { return ser.segs[i].start > abs })
	seg := &ser.segs[si-1]
	return seg, abs - seg.start
}

// at returns the retained sample at absolute index abs.
func (ser *series) at(abs int) Sample {
	seg, i := ser.locate(abs)
	return Sample{T: seg.time(i), V: seg.vals[i]}
}

// seek returns the position of the first retained sample with T >= t as
// (segment index, in-segment offset), or (len(segs), 0) if there is none.
func (ser *series) seek(t simtime.Time) (si, j int) {
	si = sort.Search(len(ser.segs), func(i int) bool { return ser.segs[i].lastT() >= t })
	if si == len(ser.segs) {
		return si, 0
	}
	return si, ser.segs[si].search(t)
}

// abs converts a seek position to an absolute sample index.
func (ser *series) abs(si, j int) int {
	if si == len(ser.segs) {
		return ser.total()
	}
	return ser.segs[si].start + j
}

// bounds returns the absolute index range [lo, hi) of retained samples
// inside iv. Callers must hold at least the read lock.
func (ser *series) bounds(iv simtime.Interval) (lo, hi int) {
	return ser.abs(ser.seek(iv.Start)), ser.abs(ser.seek(iv.End))
}

// cursor is a seek position (segment si, offset j) with the absolute
// prefix sum before it, last moved to time t. The zero cursor is
// unplaced.
type cursor struct {
	si, j  int
	sum    float64
	t      simtime.Time
	placed bool
}

// moveTo places the cursor at the first retained sample with T >= t.
// Moving forward by at most one segment steps sample by sample, adding
// each value stepped over to the sum — the additions append made, in its
// order, across segment boundaries too; anything else seeks and replays
// from a checkpoint. Both give the same bits.
func (c *cursor) moveTo(ser *series, t simtime.Time) {
	si, j, sum := c.si, c.j, c.sum
	if !c.placed || t < c.t || si+1 < len(ser.segs) && ser.segs[si+1].lastT() < t {
		si, j = ser.seek(t)
		sum = ser.tail
		if si < len(ser.segs) {
			sum = ser.segs[si].cumBefore(j)
		}
	} else {
		for ; si < len(ser.segs); si, j = si+1, 0 {
			seg := &ser.segs[si]
			vals := seg.vals
			if !seg.offGrid() {
				t0, dt := seg.t0, seg.dt
				for ; j < len(vals) && gridTime(t0, dt, j) < t; j++ {
					sum += vals[j]
				}
			} else {
				ts := seg.times()
				for ; j < len(vals) && simtime.Time(ts[j]) < t; j++ {
					sum += vals[j]
				}
			}
			if j < len(vals) {
				break
			}
		}
	}
	c.si, c.j, c.sum, c.t, c.placed = si, j, sum, t, true
}

// windowSums moves lo and hi to a window's ends and returns the number
// of retained samples inside it and the sum of their values, as one
// prefix-sum subtraction. It is the only place a window aggregate is
// formed, so every reader (WindowStats, WindowMeans) sees bit-identical
// sums. Callers must hold at least the read lock.
func (ser *series) windowSums(iv simtime.Interval, lo, hi *cursor) (n int, sum float64) {
	lo.moveTo(ser, iv.Start)
	hi.moveTo(ser, iv.End)
	l, h := ser.abs(lo.si, lo.j), ser.abs(hi.si, hi.j)
	if h <= l {
		return 0, 0
	}
	sum = hi.sum
	if l > 0 {
		sum -= lo.sum
	}
	return h - l, sum
}

// copyRange copies retained samples [lo, hi) (absolute indices) into a
// fresh slice.
func (ser *series) copyRange(lo, hi int) []Sample {
	if hi <= lo {
		return nil
	}
	out := make([]Sample, 0, hi-lo)
	for i := range ser.segs {
		seg := &ser.segs[i]
		if seg.start+len(seg.vals) <= lo {
			continue
		}
		if seg.start >= hi {
			break
		}
		out = seg.appendSamples(out, max(lo-seg.start, 0), min(hi-seg.start, len(seg.vals)))
	}
	return out
}

// append adds one sample to the running sum, checkpointing the sum
// before it when it opens a stride. size is the capacity of any new
// segment; a partially-filled trailing segment keeps its own. A sample
// off its segment's grid moves the segment off it for good, and a new
// segment opens off the grid when the times before it fit no one grid.
func (ser *series) append(sample Sample, size int) {
	n := len(ser.segs)
	if n == 0 || len(ser.segs[n-1].vals) == ser.segs[n-1].size() {
		next := segment{start: ser.total()}
		if n > 0 && ser.segs[n-1].irregular() {
			next.vals, next.dt = make([]float64, 0, 2*size), -1
		} else {
			next.vals = make([]float64, 0, size)
		}
		if n == cap(ser.segs) {
			// Exactly one more slot: append would double the list, and
			// the slots truncate resliced away would stay allocated.
			ser.segs = append(make([]segment, 0, n+1), ser.segs...)
		}
		ser.segs = append(ser.segs, next)
		n++
	}
	seg := &ser.segs[n-1]
	j := len(seg.vals)
	// Sample j >= 2 on the grid, the common case, is tested inline:
	// onGrid is too large to inline.
	if !seg.offGrid() && !(j >= 2 && sameTime(gridTime(seg.t0, seg.dt, j), sample.T)) && !seg.onGrid(j, sample.T) {
		seg.leaveGrid()
	}
	if sh := seg.shift(); j&(1<<sh-1) == 0 {
		seg.ck[j>>sh] = ser.tail
	}
	seg.vals = append(seg.vals, sample.V)
	if seg.offGrid() {
		seg.times()[j] = float64(sample.T)
	}
	ser.tail += sample.V
}

// truncate drops whole leading segments whose samples all lie strictly
// before the horizon; the survivors' absolute checkpoints keep every
// surviving aggregate bit-identical. It returns the number of samples
// dropped.
func (ser *series) truncate(before simtime.Time) int {
	n := 0
	for len(ser.segs) > 0 && ser.segs[0].lastT() < before {
		ser.dropped += len(ser.segs[0].vals)
		n += len(ser.segs[0].vals)
		ser.segs[0] = segment{}
		ser.segs = ser.segs[1:]
	}
	return n
}

// Store is the central monitoring repository, standing in for the
// management tool's DB2 time-series database. Samples for a series must be
// appended in non-decreasing time order, which is how the sampler produces
// them. All methods are safe for concurrent use.
//
// The store is retention-aware: Truncate drops evidence older than a
// horizon, segment by segment, and every cursor and aggregate is
// expressed in absolute sample indices so truncation is invisible to
// readers of the surviving window (see DESIGN.md "Memory model &
// retention").
//
// The series index is maintained, not computed: keys holds every
// SeriesKey in (component, metric) order, inserted by binary search when
// Append creates a series. Series are never deleted (Truncate empties
// them but keeps their cumulative sums), so the index only grows, and
// Keys, Components and MetricsFor read it — and Truncate, Len and Dropped
// walk it — without walking or sorting the map.
type Store struct {
	mu     sync.RWMutex
	seg    int // segment capacity for new segments; 0 = segmentSize
	series map[SeriesKey]*series
	keys   []SeriesKey // every key of series, sorted by SeriesKey.compare
	// expiry is a lower bound on every series' head segment's last T: no
	// segment can be freed by a horizon at or below it, so such a
	// Truncate returns without visiting a series. A full pass recomputes
	// it exactly; in between only an append into an empty series (a new
	// one, or one truncated away) can start a head below it. A head that
	// is still filling only moves its last T up.
	expiry simtime.Time
	// unpublished counts samples appended under the held write lock and
	// not yet added to liveSamples (see unlock).
	unpublished int
}

// NewStore returns an empty monitoring store.
func NewStore() *Store {
	return &Store{series: make(map[SeriesKey]*series), expiry: simtime.Time(math.Inf(1))}
}

// SetSegmentSize overrides the granularity of segments created by
// subsequent appends (default 64 samples). Smaller segments tighten
// retention — truncation frees whole segments, leaving at most one
// segment of slack per series — at the cost of more per-segment
// bookkeeping. Segmentation never affects values: prefix sums are
// running cumulative sums over the sample sequence, so every window
// aggregate is bit-identical under any segment size. Values below 1
// restore the default.
func (s *Store) SetSegmentSize(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		n = 0
	}
	s.seg = n
}

// Append records one sample for (component, metric). It returns an error if
// the sample is out of time order for its series. It is AppendRun's
// one-sample case.
func (s *Store) Append(component string, metric Metric, sample Sample) error {
	return s.AppendRun(component, metric, []Sample{sample})
}

// AppendRun records a run of samples for one series under one lock, one
// series lookup and one live-sample count update. The run must be in
// non-decreasing time order and start at or after the series' newest
// sample; otherwise AppendRun returns an error and appends nothing.
func (s *Store) AppendRun(component string, metric Metric, samples []Sample) error {
	s.mu.Lock()
	defer s.unlock()
	k := SeriesKey{Component: component, Metric: metric}
	_, err := s.appendRun(k, s.series[k], samples)
	return err
}

// Batch is the store locked for a run of appends: one lock and one
// live-sample count update however many samples it writes. Each Append
// is accepted or refused on its own, exactly as Store.Append would.
// Close it promptly, and call no other store method while it is open.
type Batch struct{ s *Store }

// Batch locks the store for writing until the batch is closed.
func (s *Store) Batch() Batch {
	s.mu.Lock()
	return Batch{s}
}

// Append is Store.Append inside a batch.
func (b Batch) Append(component string, metric Metric, sample Sample) error {
	k := SeriesKey{Component: component, Metric: metric}
	_, err := b.s.appendRun(k, b.s.series[k], []Sample{sample})
	return err
}

// Close counts the batch's samples live and unlocks the store.
func (b Batch) Close() { b.s.unlock() }

// unlock adds the samples appended under the lock to the live count,
// once, and releases it.
func (s *Store) unlock() {
	if s.unpublished != 0 {
		liveSamples.Add(int64(s.unpublished))
		s.unpublished = 0
	}
	s.mu.Unlock()
}

// appendRun appends a run to the series k, where ser is what the caller
// found for k (nil: no series yet). The whole run is checked against the
// series' newest sample before any of it is written, and a new series is
// created only once its first run passes, so a refused run leaves no
// trace. It returns the series (nil if none exists). Callers hold the
// write lock.
func (s *Store) appendRun(k SeriesKey, ser *series, samples []Sample) (*series, error) {
	if len(samples) == 0 {
		return ser, nil
	}
	last := simtime.Time(math.Inf(-1))
	if ser != nil && len(ser.segs) > 0 {
		last = ser.segs[len(ser.segs)-1].lastT()
	}
	for _, sample := range samples {
		if sample.T < last {
			return ser, fmt.Errorf("metrics: out-of-order sample for %s: %v after %v", k, sample.T, last)
		}
		last = sample.T
	}
	if ser == nil {
		ser = &series{}
		s.series[k] = ser
		i, _ := slices.BinarySearchFunc(s.keys, k, SeriesKey.compare)
		s.keys = slices.Insert(s.keys, i, k)
	}
	size := s.seg
	if size == 0 {
		size = segmentSize
	}
	if len(ser.segs) == 0 {
		s.expiry = min(s.expiry, samples[0].T)
	}
	for _, sample := range samples {
		ser.append(sample, size)
	}
	s.unpublished += len(samples)
	return ser, nil
}

// MustAppend is Append for simulator-internal callers where out-of-order
// appends indicate a bug; it panics on error.
func (s *Store) MustAppend(component string, metric Metric, sample Sample) {
	if err := s.Append(component, metric, sample); err != nil {
		panic(err)
	}
}

// Truncate drops samples older than the horizon, whole segments at a
// time: a segment is freed only when every sample in it has T < before.
// Window aggregates over any interval at or above the horizon are
// bit-identical before and after — the prefix sums stay anchored to the
// series origin — which is what lets retention run under the fleet's
// byte-determinism contract. It returns the number of samples dropped.
// A horizon that can free nothing (at or below expiry) costs O(1).
//
// Callers must derive the horizon from the evidence low watermark
// (monitor warm-up, open-event read windows, undiagnosed run history);
// truncating past it discards evidence a future diagnosis may read.
func (s *Store) Truncate(before simtime.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if before <= s.expiry {
		return 0
	}
	n := 0
	s.expiry = simtime.Time(math.Inf(1))
	for _, k := range s.keys {
		ser := s.series[k]
		n += ser.truncate(before)
		if len(ser.segs) > 0 {
			s.expiry = min(s.expiry, ser.segs[0].lastT())
		}
	}
	if n > 0 {
		liveSamples.Add(int64(-n))
		truncatedTotal.Add(int64(n))
	}
	return n
}

// get returns the series for (component, metric), or nil. Callers must
// hold at least the read lock.
func (s *Store) get(component string, metric Metric) *series {
	return s.series[SeriesKey{Component: component, Metric: metric}]
}

// Series returns all retained samples of a series in time order. The
// returned slice is a copy and may be retained by the caller.
func (s *Store) Series(component string, metric Metric) []Sample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil {
		return nil
	}
	return ser.copyRange(ser.dropped, ser.total())
}

// Window returns the samples of a series whose timestamps lie in iv.
func (s *Store) Window(component string, metric Metric, iv simtime.Interval) []Sample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil {
		return nil
	}
	lo, hi := ser.bounds(iv)
	return ser.copyRange(lo, hi)
}

// WindowMean returns the mean value of the series over iv and the number of
// samples it covers. With zero samples the mean is 0. It runs in O(log n)
// via the prefix-sum checkpoints, independent of the window's length.
func (s *Store) WindowMean(component string, metric Metric, iv simtime.Interval) (mean float64, n int) {
	st := s.WindowStats(component, metric, iv)
	return st.Mean, st.N
}

// Stats summarizes a window of one series.
type Stats struct {
	N    int
	Sum  float64
	Mean float64
}

// WindowStats returns count, sum and mean of the series over iv in
// O(log n), using the per-series prefix-sum checkpoints. This is the
// incremental query the online monitor relies on: evaluating a baseline
// window costs the same whether the store holds a day or a year of
// samples.
func (s *Store) WindowStats(component string, metric Metric, iv simtime.Interval) Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil {
		return Stats{}
	}
	n, sum := ser.windowSums(iv, &cursor{}, &cursor{})
	if n == 0 {
		return Stats{}
	}
	return Stats{N: n, Sum: sum, Mean: sum / float64(n)}
}

// WindowMeans appends to dst the mean of the series over each window that
// holds at least one sample, in window order, and returns the extended
// slice; empty windows are skipped. It is the batched form of WindowMean
// for callers that read one series over many windows (Module DA's
// per-run means): one read lock and one series lookup for the whole
// batch, and a cursor per window end carried across the batch, so
// windows in time order step forward over the samples between them
// instead of seeking. Each mean is formed by the same prefix-sum
// subtraction and division WindowStats performs, from the same bits, so
// the values are bit-identical to per-call WindowMean. Pass dst[:0] to
// reuse a buffer across series.
func (s *Store) WindowMeans(component string, metric Metric, windows []simtime.Interval, dst []float64) []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil {
		return dst
	}
	var lo, hi cursor
	for _, iv := range windows {
		if n, sum := ser.windowSums(iv, &lo, &hi); n > 0 {
			dst = append(dst, sum/float64(n))
		}
	}
	return dst
}

// Since returns a copy of the samples appended to the series after the
// given cursor position, plus the new cursor. A zero cursor starts at the
// beginning; feeding the returned cursor back yields only samples that
// arrived in between. This is how streaming consumers (the monitor's
// metric watcher) tail the store without re-scanning it. Cursors are
// absolute sample indices, so they stay valid across Truncate: a cursor
// pointing into the dropped prefix resumes at the first retained sample.
func (s *Store) Since(component string, metric Metric, cursor int) ([]Sample, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil {
		return nil, cursor
	}
	if cursor < ser.dropped {
		cursor = ser.dropped
	}
	total := ser.total()
	if cursor >= total {
		return nil, total
	}
	return ser.copyRange(cursor, total), total
}

// Latest returns the most recent retained sample of the series, if any.
func (s *Store) Latest(component string, metric Metric) (Sample, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil || ser.live() == 0 {
		return Sample{}, false
	}
	return ser.at(ser.total() - 1), true
}

// Keys returns every series key in the store, sorted by component then
// metric. The index is kept in that order, so this is a copy.
func (s *Store) Keys() []SeriesKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.keys)
}

// Components returns the distinct component IDs present in the store,
// sorted: one pass over the ordered index.
func (s *Store) Components() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for i, k := range s.keys {
		if i == 0 || k.Component != s.keys[i-1].Component {
			out = append(out, k.Component)
		}
	}
	return out
}

// MetricsFor returns the metrics recorded for a component, sorted. A
// component's keys are contiguous in the index, so this is a binary
// search — O(log K) in the number of series — plus a scan of the
// component's own metrics.
func (s *Store) MetricsFor(component string) []Metric {
	return s.AppendMetricsFor(nil, component)
}

// AppendMetricsFor appends the metrics recorded for a component, sorted,
// to dst.
func (s *Store) AppendMetricsFor(dst []Metric, component string) []Metric {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo := sort.Search(len(s.keys), func(i int) bool { return s.keys[i].Component >= component })
	hi := lo
	for hi < len(s.keys) && s.keys[hi].Component == component {
		hi++
	}
	dst = slices.Grow(dst, hi-lo)
	for _, k := range s.keys[lo:hi] {
		dst = append(dst, k.Metric)
	}
	return dst
}

// Len returns the total number of retained samples across all series.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, k := range s.keys {
		n += s.series[k].live()
	}
	return n
}

// Dropped returns the total number of samples truncated from the store
// over its lifetime.
func (s *Store) Dropped() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, k := range s.keys {
		n += s.series[k].dropped
	}
	return n
}
