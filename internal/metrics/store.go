package metrics

import (
	"cmp"
	"fmt"
	"math"
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
	return fmt.Sprintf("%s/%s", k.Component, k.Metric)
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
// frees memory a whole segment at a time, so the size trades truncation
// granularity (one segment of slack per series) against per-segment
// bookkeeping. At the 5-minute monitoring interval, 256 samples cover
// about 21 simulated hours.
const segmentSize = 256

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

// segment is one fixed-size run of a series. Its prefix sums are
// ABSOLUTE — anchored to the series origin, not the segment start — so
// window aggregates computed after older segments are dropped subtract
// exactly the same floating-point values they did before, making
// truncation bit-invisible to every surviving window query.
type segment struct {
	start   int // absolute index of samples[0] within the series
	samples []Sample
	sum     []float64 // sum[i] = Σ series samples[:start+i+1].V
	sum2    []float64 // sum2[i] = Σ series samples[:start+i+1].V²
}

// series holds one time series as a list of segments plus running prefix
// sums of value and squared value, so any window aggregate (mean,
// variance) is a few binary searches and a subtraction instead of a
// scan. Appends stay O(1) amortized, which is what lets the online
// monitor query baselines on every new sample without re-reading
// history. Truncation drops whole leading segments and carries their
// final cumulative sums in baseSum/baseSum2, preserving the absolute
// anchoring.
type series struct {
	dropped  int     // absolute index of the first retained sample
	baseSum  float64 // cumulative sum through sample dropped-1
	baseSum2 float64 // cumulative sum of squares through sample dropped-1
	segs     []*segment
}

// live returns the number of retained samples.
func (ser *series) live() int {
	if len(ser.segs) == 0 {
		return 0
	}
	last := ser.segs[len(ser.segs)-1]
	return last.start + len(last.samples) - ser.dropped
}

// total returns the absolute sample count, dropped samples included.
// Absolute indices in [dropped, total) address retained samples.
func (ser *series) total() int { return ser.dropped + ser.live() }

// locate returns the segment holding the retained sample at absolute
// index abs and its in-segment offset. abs must be in [dropped, total).
func (ser *series) locate(abs int) (*segment, int) {
	si := sort.Search(len(ser.segs), func(i int) bool { return ser.segs[i].start > abs })
	seg := ser.segs[si-1]
	return seg, abs - seg.start
}

// at returns the retained sample at absolute index abs.
func (ser *series) at(abs int) Sample {
	seg, i := ser.locate(abs)
	return seg.samples[i]
}

// seek returns the position of the first retained sample with T >= t as
// (segment index, in-segment offset), or (len(segs), 0) if there is none.
func (ser *series) seek(t simtime.Time) (si, j int) {
	si = sort.Search(len(ser.segs), func(i int) bool {
		seg := ser.segs[i]
		return seg.samples[len(seg.samples)-1].T >= t
	})
	if si == len(ser.segs) {
		return si, 0
	}
	seg := ser.segs[si]
	return si, sort.Search(len(seg.samples), func(i int) bool { return seg.samples[i].T >= t })
}

// abs converts a seek position to an absolute sample index.
func (ser *series) abs(si, j int) int {
	if si == len(ser.segs) {
		return ser.total()
	}
	return ser.segs[si].start + j
}

// cumBefore returns the absolute cumulative (sum, sum²) through the
// sample just before a seek position: the previous entry of the same
// segment, the last entry of the previous segment (segments are never
// empty), or the base carried over from truncation.
func (ser *series) cumBefore(si, j int) (float64, float64) {
	if j > 0 {
		seg := ser.segs[si]
		return seg.sum[j-1], seg.sum2[j-1]
	}
	if si > 0 {
		seg := ser.segs[si-1]
		return seg.sum[len(seg.sum)-1], seg.sum2[len(seg.sum2)-1]
	}
	return ser.baseSum, ser.baseSum2
}

// bounds returns the absolute index range [lo, hi) of retained samples
// inside iv. Callers must hold at least the read lock.
func (ser *series) bounds(iv simtime.Interval) (lo, hi int) {
	return ser.abs(ser.seek(iv.Start)), ser.abs(ser.seek(iv.End))
}

// windowSums returns the number of retained samples inside iv and the
// sums of their values and squared values, as one prefix-sum
// subtraction. It is the only place a window aggregate is formed, so
// every reader (WindowStats, WindowMeans) sees bit-identical sums. The
// prefix sums are read in place, at the positions the two time searches
// found. Callers must hold at least the read lock.
func (ser *series) windowSums(iv simtime.Interval) (n int, sum, sum2 float64) {
	ls, lj := ser.seek(iv.Start)
	hs, hj := ser.seek(iv.End)
	lo, hi := ser.abs(ls, lj), ser.abs(hs, hj)
	if hi <= lo {
		return 0, 0, 0
	}
	sum, sum2 = ser.cumBefore(hs, hj)
	if lo > 0 {
		psum, psum2 := ser.cumBefore(ls, lj)
		sum -= psum
		sum2 -= psum2
	}
	return hi - lo, sum, sum2
}

// copyRange copies retained samples [lo, hi) (absolute indices) into a
// fresh slice.
func (ser *series) copyRange(lo, hi int) []Sample {
	if hi <= lo {
		return nil
	}
	out := make([]Sample, 0, hi-lo)
	for _, seg := range ser.segs {
		end := seg.start + len(seg.samples)
		if end <= lo {
			continue
		}
		if seg.start >= hi {
			break
		}
		from, to := 0, len(seg.samples)
		if lo > seg.start {
			from = lo - seg.start
		}
		if hi < end {
			to = hi - seg.start
		}
		out = append(out, seg.samples[from:to]...)
	}
	return out
}

// append adds one sample with absolute cumulative sums carried from the
// previous sample (or the truncation base). size is the capacity of any
// new segment; a partially-filled trailing segment keeps its own.
func (ser *series) append(sample Sample, size int) {
	cum, cum2 := ser.cumBefore(len(ser.segs), 0)
	var seg *segment
	if n := len(ser.segs); n > 0 && len(ser.segs[n-1].samples) < cap(ser.segs[n-1].samples) {
		seg = ser.segs[n-1]
	} else {
		seg = &segment{
			start:   ser.total(),
			samples: make([]Sample, 0, size),
			sum:     make([]float64, 0, size),
			sum2:    make([]float64, 0, size),
		}
		ser.segs = append(ser.segs, seg)
	}
	seg.samples = append(seg.samples, sample)
	seg.sum = append(seg.sum, cum+sample.V)
	seg.sum2 = append(seg.sum2, cum2+sample.V*sample.V)
}

// truncate drops whole leading segments whose samples all lie strictly
// before the horizon, carrying their final cumulative sums so surviving
// aggregates are bit-identical. It returns the number of samples
// dropped.
func (ser *series) truncate(before simtime.Time) int {
	n := 0
	for len(ser.segs) > 0 {
		seg := ser.segs[0]
		if seg.samples[len(seg.samples)-1].T >= before {
			break
		}
		ser.baseSum = seg.sum[len(seg.sum)-1]
		ser.baseSum2 = seg.sum2[len(seg.sum2)-1]
		ser.dropped += len(seg.samples)
		n += len(seg.samples)
		ser.segs[0] = nil
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
// Keys, Components and MetricsFor read it without walking or sorting the
// map.
type Store struct {
	mu     sync.RWMutex
	seg    int // segment capacity for new segments; 0 = segmentSize
	series map[SeriesKey]*series
	keys   []SeriesKey // every key of series, sorted by SeriesKey.compare
}

// NewStore returns an empty monitoring store.
func NewStore() *Store {
	return &Store{series: make(map[SeriesKey]*series)}
}

// SetSegmentSize overrides the granularity of segments created by
// subsequent appends (default 256 samples). Smaller segments tighten
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
// the sample is out of time order for its series.
func (s *Store) Append(component string, metric Metric, sample Sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := SeriesKey{Component: component, Metric: metric}
	ser := s.series[k]
	if ser == nil {
		ser = &series{}
		s.series[k] = ser
		i, _ := slices.BinarySearchFunc(s.keys, k, SeriesKey.compare)
		s.keys = slices.Insert(s.keys, i, k)
	}
	if n := ser.total(); n > ser.dropped && sample.T < ser.at(n-1).T {
		return fmt.Errorf("metrics: out-of-order sample for %s: %v after %v",
			k, sample.T, ser.at(n-1).T)
	}
	size := s.seg
	if size == 0 {
		size = segmentSize
	}
	ser.append(sample, size)
	liveSamples.Add(1)
	return nil
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
//
// Callers must derive the horizon from the evidence low watermark
// (monitor warm-up, open-event read windows, undiagnosed run history);
// truncating past it discards evidence a future diagnosis may read.
func (s *Store) Truncate(before simtime.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	//lint:allow mapiter per-series truncation is independent and the integer drop count commutes
	for _, ser := range s.series {
		n += ser.truncate(before)
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
// via the prefix sums, independent of the window's length.
func (s *Store) WindowMean(component string, metric Metric, iv simtime.Interval) (mean float64, n int) {
	st := s.WindowStats(component, metric, iv)
	return st.Mean, st.N
}

// Stats summarizes a window of one series.
type Stats struct {
	N    int
	Sum  float64
	Mean float64
	// Std is the population standard deviation of the window.
	Std float64
}

// WindowStats returns count, sum, mean, and standard deviation of the
// series over iv in O(log n), using the per-series prefix sums. This is
// the incremental query the online monitor relies on: evaluating a
// baseline window costs the same whether the store holds a day or a year
// of samples.
func (s *Store) WindowStats(component string, metric Metric, iv simtime.Interval) Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil {
		return Stats{}
	}
	n, sum, sum2 := ser.windowSums(iv)
	if n == 0 {
		return Stats{}
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if variance < 0 { // floating-point cancellation
		variance = 0
	}
	return Stats{N: n, Sum: sum, Mean: mean, Std: math.Sqrt(variance)}
}

// WindowMeans appends to dst the mean of the series over each window that
// holds at least one sample, in window order, and returns the extended
// slice; empty windows are skipped. It is the batched form of WindowMean
// for callers that read one series over many windows (Module DA's
// per-run means): one read lock and one series lookup for the whole
// batch, and each mean is formed by the same prefix-sum subtraction and
// division WindowStats performs, so the values are bit-identical to
// per-call WindowMean. Pass dst[:0] to reuse a buffer across series.
func (s *Store) WindowMeans(component string, metric Metric, windows []simtime.Interval, dst []float64) []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.get(component, metric)
	if ser == nil {
		return dst
	}
	for _, iv := range windows {
		if n, sum, _ := ser.windowSums(iv); n > 0 {
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo := sort.Search(len(s.keys), func(i int) bool { return s.keys[i].Component >= component })
	hi := lo
	for hi < len(s.keys) && s.keys[hi].Component == component {
		hi++
	}
	if hi == lo {
		return nil
	}
	out := make([]Metric, hi-lo)
	for i, k := range s.keys[lo:hi] {
		out[i] = k.Metric
	}
	return out
}

// Len returns the total number of retained samples across all series.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	//lint:allow mapiter live() is a pure per-series count and the integer sum commutes
	for _, ser := range s.series {
		n += ser.live()
	}
	return n
}

// Dropped returns the total number of samples truncated from the store
// over its lifetime.
func (s *Store) Dropped() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, ser := range s.series {
		n += ser.dropped
	}
	return n
}
