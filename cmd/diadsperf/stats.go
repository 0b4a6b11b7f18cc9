package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at, each
// with how many samples it takes to have one beyond it.
var tailLadder = []struct {
	q     float64
	oneIn int
}{{0.999, 1000}, {0.99, 100}, {0.95, 20}, {0.90, 10}, {0.75, 4}}

// tailQuantile is the rule for tails: the highest percentile that still
// has at least ten samples beyond it. Below forty samples no percentile
// above the median qualifies, and the median is reported.
func tailQuantile(n int) float64 {
	for _, t := range tailLadder {
		if n >= 10*t.oneIn {
			return t.q
		}
	}
	return 0.5
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile[T any](sorted []T, q float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedDurations(v []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median of float values (mean of the middle pair for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// usage is the process's cumulative cost at one instant.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system, getrusage
	mallocs uint64
	bytes   uint64 // cumulative bytes allocated
	numGC   uint32
	pauseNs uint64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		at:      time.Now(),
		cpu:     cpuNow(),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
		numGC:   m.NumGC,
		pauseNs: m.PauseTotalNs,
	}
}

// cost is what a timed section consumed.
type cost struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	numGC          uint32
	gcPause        time.Duration
}

func (u usage) since(start usage) cost {
	return cost{
		wall:    u.at.Sub(start.at),
		cpu:     u.cpu - start.cpu,
		mallocs: u.mallocs - start.mallocs,
		bytes:   u.bytes - start.bytes,
		numGC:   u.numGC - start.numGC,
		gcPause: time.Duration(u.pauseNs - start.pauseNs),
	}
}

// cpuNow is the process's user + system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// blockLen is the least a block of a timed section lasts: long enough
// that the kernel's tick-based CPU accounting resolves it to a percent.
const blockLen = 500 * time.Millisecond

// blockStats cuts a timed section into blocks and keeps each block's
// rate and CPU per operation. The workload reports medians over blocks,
// so a burst of interference from the host moves a few blocks and not
// the result, as it would a total divided by the wall.
type blockStats struct {
	start     time.Time
	cpu0      time.Duration
	ops       int
	rate, cpu []float64 // per block: ops per second, CPU microseconds per op
}

func (b *blockStats) begin() { b.start, b.cpu0, b.ops = time.Now(), cpuNow(), 0 }

// add counts finished operations and closes the block once it is long
// enough.
func (b *blockStats) add(ops int) {
	b.ops += ops
	if time.Since(b.start) >= blockLen {
		b.end()
		b.begin()
	}
}

// end closes the open block. A short last block counts only when it is
// the only one.
func (b *blockStats) end() {
	wall := time.Since(b.start)
	if b.ops == 0 || (wall < blockLen/2 && len(b.rate) > 0) {
		return
	}
	b.rate = append(b.rate, float64(b.ops)/wall.Seconds())
	b.cpu = append(b.cpu, us(cpuNow()-b.cpu0)/float64(b.ops))
	b.ops = 0
}

// liveHeap is HeapAlloc after two collections: what is still referenced.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

const mb = 1 << 20
