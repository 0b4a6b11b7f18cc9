//go:build !race

package plan

import (
	"runtime"
	"testing"
)

// buildQ2Bytes is the byte budget of one BuildQ2: the 5 584 bytes it
// measured for 25 operators, when it was set, plus about 10 %.
const buildQ2Bytes = 6100

// TestBuildQ2Allocs holds BuildQ2 to what the plan it returns keeps: the
// node array, the child-list array, the Plan, and its node and parent
// lists. The tree is counted before it is built by describing it to an
// arena with no storage, so no scratch copy of it is made and dropped.
// The race detector adds allocations, so the test is built only without
// it; CI runs it in a step of its own.
func TestBuildQ2Allocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seqScan := DefaultQ2Choices()
	seqScan.PartsuppAccess = AccessSpec{Type: OpSeqScan}
	for _, ch := range []Q2Choices{DefaultQ2Choices(), seqScan} {
		var p *Plan
		allocs := testing.AllocsPerRun(100, func() { p = BuildQ2(ch) })
		if allocs != 5 {
			t.Errorf("BuildQ2 of %d operators allocates %.0f times, want 5", p.NumOperators(), allocs)
		}

		const runs = 100
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			p = BuildQ2(ch)
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%d operators: %.0f allocations, %d bytes", p.NumOperators(), allocs, got)
		if got > buildQ2Bytes {
			t.Errorf("BuildQ2 of %d operators allocates %d bytes, budget %d", p.NumOperators(), got, buildQ2Bytes)
		}
	}
}
