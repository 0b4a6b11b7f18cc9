// Benchmarks for the online layer: monitor ingestion, the store's
// incremental window queries, and cache-accelerated repeated diagnosis.
package diads_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diads"
	"diads/internal/apg"
	"diads/internal/cache"
	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/experiments"
	"diads/internal/metrics"
	"diads/internal/monitor"
	"diads/internal/simtime"
	"diads/internal/symptoms"
)

// BenchmarkOnline_MonitorObserve measures per-run ingestion cost: ring
// update, windowed mean/variance, Page-Hinkley — the budget the monitor
// adds to every query execution.
func BenchmarkOnline_MonitorObserve(b *testing.B) {
	m := monitor.New(monitor.Config{})
	recs := make([]*exec.RunRecord, 256)
	for i := range recs {
		start := simtime.Time(simtime.Duration(i) * 30 * simtime.Minute)
		recs[i] = &exec.RunRecord{
			Query: fmt.Sprintf("Q%d", i%8),
			RunID: fmt.Sprintf("run-%04d", i),
			Start: start,
			Stop:  start.Add(simtime.Duration(60 + i%5)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(recs[i%len(recs)])
	}
}

// BenchmarkOnline_WindowStats measures the O(log n) incremental window
// query against a year-scale series.
func BenchmarkOnline_WindowStats(b *testing.B) {
	s := metrics.NewStore()
	const n = 100_000 // ~1 year of 5-minute samples
	for i := 0; i < n; i++ {
		s.MustAppend("vol-V1", metrics.VolReadTime,
			metrics.Sample{T: simtime.Time(i * 300), V: 0.01 + float64(i%7)*1e-4})
	}
	iv := simtime.NewInterval(simtime.Time(n/4*300), simtime.Time(3*n/4*300))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := s.WindowStats("vol-V1", metrics.VolReadTime, iv); st.N == 0 {
			b.Fatal("empty window")
		}
	}
}

// BenchmarkFleet_Throughput sweeps the fleet along two axes. The small
// axis (inst × workers) streams 2–8 instances through one service and
// shows how far a shard's worker pool absorbs diagnosis load. The scale
// axis (inst=100 × shards) is the tentpole measurement. On a single
// CPU the curve across shard counts should be flat: after the sanperf
// pool-demand hoist and the emission memo flattened the per-instance
// simulation cost, the remaining 100-instance work is linear and
// per-instance, so shards can neither divide it nor — and this is what
// the sweep guards — add coordination overhead on top. Shard division
// pays on multi-core hardware, where per-shard coordinators and
// worker pools parallelize; at 1000 instances the single-core cost is
// dominated by the resident fleet's heap, flat across shards. The scale
// axis is opt-in (whole fleets per iteration are expensive):
// DIADS_BENCH_FLEET=100 enables it, DIADS_BENCH_FLEET=1000 adds the
// 1000-instance sweep (minutes per iteration; never part of CI smoke).
func BenchmarkFleet_Throughput(b *testing.B) {
	runFleet := func(b *testing.B, spec experiments.FleetSpec) {
		// Each iteration builds and drains a whole fleet, so a sub-bench
		// inherits whatever heap the previous one grew. Collect before
		// timing so every (inst, shards) point starts from the same
		// allocator state instead of paying its predecessor's cleanup.
		runtime.GC()
		// Track the live-heap high-water mark while the fleets run: the
		// number the retention layer exists to bound. A sampler records
		// HeapAlloc maxima (10ms resolution is plenty — fleet heap grows
		// over seconds); the peak is reported as the peak-heap-bytes
		// metric beside ns/op.
		var peak atomic.Uint64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			var ms runtime.MemStats
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peak.Load() {
						peak.Store(ms.HeapAlloc)
					}
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, _, err := experiments.RunFleetSpec(spec)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Stats.Completed == 0 || rep.Stats.Failed != 0 {
				b.Fatalf("fleet idle or failing: %+v", rep.Stats)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak.Load() {
			peak.Store(ms.HeapAlloc)
		}
		b.ReportMetric(float64(peak.Load()), "peak-heap-bytes")
	}
	for _, inst := range []int{2, 4, 8} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("inst=%d/workers=%d", inst, workers), func(b *testing.B) {
				runFleet(b, experiments.FleetSpec{
					Seed: 42, Instances: inst, Degraded: 3 * inst / 4,
					Runs: 12, Workers: workers,
				})
			})
		}
	}
	var scale []int
	switch os.Getenv("DIADS_BENCH_FLEET") {
	case "100":
		scale = []int{100}
	case "1000":
		scale = []int{100, 1000}
	}
	for _, inst := range scale {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("inst=%d/shards=%d", inst, shards), func(b *testing.B) {
				runFleet(b, experiments.FleetSpec{
					Seed: 42, Instances: inst, Degraded: 3 * inst / 4,
					Runs: 12, Shards: shards,
					// Cap concurrent simulations to bound memory; the
					// barrier protocol makes the cap invisible in results.
					MaxStreams: 16,
					// The scale axis runs with the retention layer on —
					// peak-heap-bytes here is the bounded-memory
					// measurement; the parity sweep guarantees the knobs
					// cannot change the report.
					Retention:   true,
					ResidentCap: 16,
				})
			})
		}
	}
}

// BenchmarkOnline_CachedDiagnosis measures a service-style repeated
// diagnosis with shared APG and symptoms caches — the near-free path a
// recurring incident takes.
func BenchmarkOnline_CachedDiagnosis(b *testing.B) {
	sc := scenarioFor(b, diads.ScenarioSANMisconfig)
	in := *sc.Input
	in.APGCache = cache.New[string, *apg.APG](8)
	in.SDCache = cache.New[string, []symptoms.CauseInstance](8)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := diag.DiagnoseContext(ctx, &in)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := res.TopCause(); !ok {
			b.Fatal("no cause")
		}
	}
}
