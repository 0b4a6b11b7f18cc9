// Package sanperf models the performance side of the SAN: how concurrent
// loads on volumes translate into disk utilization and I/O response times.
//
// The model is analytic rather than discrete-event: every load source
// (database query runs, external application workloads, RAID rebuilds)
// contributes piecewise-constant load segments to a timeline, and response
// times follow an M/M/1-style utilization law over the disks a volume
// stripes across. This reproduces the causal structure the paper's
// diagnosis scenarios depend on — most importantly that two volumes carved
// from the same pool contend for the same spindles, so a misconfigured
// volume V' degrades V1 without touching V2.
package sanperf

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"diads/internal/simtime"
)

// Segment is one piecewise-constant load contribution.
type Segment struct {
	Iv     simtime.Interval
	V      float64
	Source string // who contributes this load (workload, query run, fault)
}

// Timeline accumulates named piecewise-constant quantities. The value of a
// key at time t is the sum of all segments active at t. It is safe for
// concurrent use.
type Timeline struct {
	mu   sync.RWMutex
	segs map[string][]Segment
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{segs: make(map[string][]Segment)}
}

// Add contributes a segment of value v to key over iv.
func (tl *Timeline) Add(key string, iv simtime.Interval, v float64, source string) {
	if iv.Length() <= 0 || v == 0 {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.segs[key] = append(tl.segs[key], Segment{Iv: iv, V: v, Source: source})
}

// At returns the summed value of key at time t.
func (tl *Timeline) At(key string, t simtime.Time) float64 {
	return sumAt(tl.view(key), t)
}

// MeanOver returns the time-average of key over iv.
func (tl *Timeline) MeanOver(key string, iv simtime.Interval) float64 {
	if iv.Length() <= 0 {
		return tl.At(key, iv.Start)
	}
	var weighted float64
	for _, s := range tl.view(key) {
		weighted += s.V * float64(s.Iv.Overlap(iv))
	}
	return weighted / float64(iv.Length())
}

// WindowMeans sets dst[i] to MeanOver(key, wins[i]) for every window,
// bit for bit, in one pass over the key's segments, and returns dst
// (grown to len(wins) if short). wins must be sorted and disjoint, as a
// Sampler's windows are.
func (tl *Timeline) WindowMeans(key string, wins []simtime.Interval, dst []float64) []float64 {
	return windowMeans(tl.view(key), wins, dst)
}

// view returns key's segments in insertion order. The slice is never
// written again — Add appends past its length and Truncate replaces it —
// so callers may read it after the lock is released.
func (tl *Timeline) view(key string) []Segment {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	return tl.segs[key]
}

// appendInside appends to dst, key by key and each in insertion order,
// the segments that reach into iv — those ending after iv.Start and
// starting no later than iv.End — and records in ends the length of dst
// after each key. Every other segment neither contains an instant in
// [iv.Start, iv.End] nor overlaps a window inside iv, so its term in any
// sum At or MeanOver forms there is exactly ±0 and dropping it changes
// no bit. One lock acquisition covers every key.
func appendInside[K ~string](tl *Timeline, dst []Segment, ends []int, keys []K, iv simtime.Interval) ([]Segment, []int) {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	for _, k := range keys {
		for _, s := range tl.segs[string(k)] {
			if s.Iv.End > iv.Start && s.Iv.Start <= iv.End {
				dst = append(dst, s)
			}
		}
		ends = append(ends, len(dst))
	}
	return dst, ends
}

// sumAt returns the summed value of segs at t, in insertion order.
func sumAt(segs []Segment, t simtime.Time) float64 {
	var sum float64
	for _, s := range segs {
		if s.Iv.Contains(t) {
			sum += s.V
		}
	}
	return sum
}

// windowMeans computes MeanOver for each window of a sorted, disjoint
// list in one pass: each segment adds its term to the windows it
// overlaps, so every window still accumulates in segment insertion
// order. The terms it skips are those of windows a segment misses,
// exactly ±0 for finite loads, and a running sum that starts at +0 is
// never -0, so adding them would change no bit.
func windowMeans(segs []Segment, wins []simtime.Interval, dst []float64) []float64 {
	if cap(dst) < len(wins) {
		dst = make([]float64, len(wins))
	}
	dst = dst[:len(wins)]
	clear(dst)
	for _, s := range segs {
		i, _ := slices.BinarySearchFunc(wins, s.Iv.Start, func(w simtime.Interval, t simtime.Time) int {
			return cmp.Compare(w.End, t)
		})
		for ; i < len(wins) && wins[i].Start < s.Iv.End; i++ {
			dst[i] += s.V * float64(s.Iv.Overlap(wins[i]))
		}
	}
	for i, w := range wins {
		if w.Length() <= 0 {
			dst[i] = sumAt(segs, w.Start)
			continue
		}
		dst[i] /= float64(w.Length())
	}
	return dst
}

// Truncate drops segments whose intervals end at or before the horizon
// and returns how many were dropped. Reads at or above the horizon are
// bit-identical afterwards: intervals are half-open, so a dropped
// segment neither Contains any t >= before nor Overlaps any interval
// starting there — its contribution to every surviving accumulation was
// exactly zero. Keys left without segments are removed. A key that
// loses segments gets a fresh slice, never a compacted one: slices
// handed out by view stay valid.
func (tl *Timeline) Truncate(before simtime.Time) int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var stale []string
	for k, segs := range tl.segs {
		dead := 0
		for _, s := range segs {
			if s.Iv.End <= before {
				dead++
			}
		}
		if dead > 0 {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	n := 0
	for _, k := range stale {
		segs := tl.segs[k]
		live := 0
		for _, s := range segs {
			if s.Iv.End > before {
				live++
			}
		}
		n += len(segs) - live
		if live == 0 {
			delete(tl.segs, k)
			continue
		}
		kept := make([]Segment, 0, live)
		for _, s := range segs {
			if s.Iv.End > before {
				kept = append(kept, s)
			}
		}
		tl.segs[k] = kept
	}
	return n
}

// SourcesAt returns the distinct sources contributing to key at t, sorted.
func (tl *Timeline) SourcesAt(key string, t simtime.Time) []string {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	seen := make(map[string]bool)
	for _, s := range tl.segs[key] {
		if s.Iv.Contains(t) && s.Source != "" {
			seen[s.Source] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Segments returns a copy of the segments recorded under key.
func (tl *Timeline) Segments(key string) []Segment {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	out := make([]Segment, len(tl.segs[key]))
	copy(out, tl.segs[key])
	return out
}

// Keys returns all keys with at least one segment, sorted.
func (tl *Timeline) Keys() []string {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	out := make([]string, 0, len(tl.segs))
	for k := range tl.segs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
