//go:build !race

package diag_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"diads/internal/diag"
	"diads/internal/experiments"
)

// TestFactBaseBytes holds the fact base of scenario 1, which every kept
// incident of its kind holds for the life of the process, to 16 bytes per
// fact and per timestamp plus its names: the heap bytes BuildFacts
// allocates once its builder scratch is pooled. The allocator rounds the
// records and the names up to their size classes, and the base's own
// header takes 48 bytes; the bound allows both. The race detector adds
// allocations, so the test is built only without it; CI runs it in a
// step of its own.
func TestFactBaseBytes(t *testing.T) {
	sc, err := experiments.Build(experiments.S1SANMisconfig, 42)
	if err != nil {
		t.Fatal(err)
	}
	in, err := diag.Seed(sc.Input)
	if err != nil {
		t.Fatal(err)
	}
	res, err := diag.Diagnose(sc.Input)
	if err != nil {
		t.Fatal(err)
	}
	build := func() { diag.BuildFacts(in, res.APG, res.PD, res.CO, res.DA, res.CR) }
	// One P and no collection while counting: a collection that empties
	// the builder pool would count a new builder's scratch.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	build() // fill the builder pool
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		build()
	}
	runtime.ReadMemStats(&after)
	got := int((after.TotalAlloc - before.TotalAlloc) / runs)

	names, timed := 0, 0
	for _, f := range res.Facts.All() {
		names += len(f.Name)
		if f.HasT {
			timed++
		}
	}
	n := res.Facts.Len()
	limit := sizeClass(16*(n+timed)) + sizeClass(names) + 64
	t.Logf("%d facts, %d bytes of names: the base takes %d bytes (%.1f per fact beside the names), limit %d",
		n, names, got, float64(got-names)/float64(n), limit)
	if n < 200 {
		t.Fatalf("scenario 1 built %d facts, want the 200 or more it builds", n)
	}
	if got > limit {
		t.Errorf("the fact base takes %d bytes, limit %d", got, limit)
	}
}

// sizeClass returns the bytes the allocator hands out for an object of n
// bytes: append rounds a new slice's capacity up to its size class.
func sizeClass(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }
