//go:build !race

package monitor

import (
	"testing"

	"diads/internal/exec"
	"diads/internal/simtime"
)

// observeAllocs is the allocation budget of one Observe of a satisfactory
// run: the count measured when it was set plus at most 10 % headroom. A
// change that needs more allocations raises the ceiling in the open,
// with its reason; one that needs fewer lowers it.
const observeAllocs = 0

// TestMonitorObserveAllocs holds Observe of a satisfactory run — what
// the monitor costs on every run the product ingests, in the steady
// state of an armed query with a full history ring — to its allocation
// budget. The ring is a slice re-grown about once per 40 runs, which the
// per-run average rounds away; an allocation on every run does not. The
// race detector adds allocations, so the test is built only without it;
// CI runs it in the allocation-budget step.
func TestMonitorObserveAllocs(t *testing.T) {
	const runs = 200
	m := New(Config{})
	// Warm-up fills the ring twice over; AllocsPerRun adds one call.
	recs := make([]*exec.RunRecord, 2*m.cfg.History+runs+1)
	for i := range recs {
		start := simtime.Time(simtime.Duration(i) * 30 * simtime.Minute)
		recs[i] = fakeRun("Q2", i, start, simtime.Duration(60+i%5))
	}
	i := 0
	for ; i < 2*m.cfg.History; i++ {
		m.Observe(recs[i])
	}
	got := testing.AllocsPerRun(runs, func() {
		m.Observe(recs[i])
		i++
	})
	t.Logf("%.0f allocations per Observe", got)
	if st := m.Stats(); st.Observed != int64(len(recs)) || st.Events != 0 {
		t.Fatalf("want %d satisfactory runs observed and no event, got %+v", len(recs), st)
	}
	if got > observeAllocs {
		t.Errorf("%.0f allocations per Observe of a satisfactory run, budget %d", got, observeAllocs)
	}
}
