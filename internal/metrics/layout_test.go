//go:build !race

package metrics

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"diads/internal/simtime"
)

// TestLiveBytesPerSample pins the layout's cost: 200 series of 292
// samples (a day at the 5-minute interval plus the read-window padding —
// what one ingest tenant-day holds per series), index and slack included.
//
// On the 300 s grid a sample costs at most 12.5 live bytes (reads 11.4):
// 8 for its value — its time is the segment's t0 + j·dt — the rest five
// 112-byte segment headers with their inline checkpoints in a list of
// exactly five slots (576 bytes), the empty slots of the last segment,
// and the index. Off the grid
// each segment keeps its times too, 8 bytes a slot, whether the grid
// never holds (uniform jitter) or breaks at every checkpoint stride (a
// scrape 1 s late at each segment's 8th, 16th, ... sample): at most 22 (reads 20.0),
// the bound that held when every sample stored its time beside its value.
//
// Built without -race, whose shadow memory inflates the heap.
func TestLiveBytesPerSample(t *testing.T) {
	const nSeries, perSeries = 200, 292
	comps := make([]string, nSeries)
	for i := range comps {
		comps[i] = "vol-" + strconv.Itoa(i)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	rng := rand.New(rand.NewSource(20261017))
	for _, c := range []struct {
		name  string
		bound float64
		at    func(i int) simtime.Time
	}{
		{"grid", 12.5, func(i int) simtime.Time { return simtime.Time(i * 300) }},
		{"jittered", 22, func(i int) simtime.Time { return simtime.Time(i*300) + simtime.Time(60*rng.Float64()-30) }},
		{"late-every-stride", 22, func(i int) simtime.Time {
			if i%8 == 0 && i%segmentSize != 0 {
				return simtime.Time(i*300 + 1)
			}
			return simtime.Time(i * 300)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Draw the times first: the heap must grow by the store alone.
			times := make([]simtime.Time, perSeries*nSeries)
			for i := range times {
				times[i] = c.at(i / nSeries)
			}
			before := heap()
			s := NewStore()
			for i, ts := range times {
				s.MustAppend(comps[i%nSeries], VolReadIO, Sample{T: ts, V: float64(i / nSeries)})
			}
			after := heap()
			perSample := float64(after-before) / float64(s.Len())
			runtime.KeepAlive(s)
			runtime.KeepAlive(times)
			t.Logf("%.1f live bytes per sample", perSample)
			if perSample > c.bound {
				t.Fatalf("%.1f live bytes per sample, want at most %v", perSample, c.bound)
			}
		})
	}
}
