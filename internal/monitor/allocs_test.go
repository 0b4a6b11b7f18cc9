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
// budget. A full ring drops its oldest run in place, so it never grows.
// The race detector adds allocations, so the test is built only without it;
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

// gateReleaseAllocs is the allocation budget of one detection through
// the gate — Add, then a Release that frees it — the count measured when
// it was set plus at most 10 % headroom: the released slice.
const gateReleaseAllocs = 1

// TestGateReleaseAllocs holds one detection's pass through the
// watermark gate to its allocation budget. Three detections whose
// windows the watermark never reaches stay pending throughout, so every
// Release partitions the queue rather than emptying it. The race
// detector adds allocations, so the test is built only without it; CI
// runs it in the allocation-budget step.
func TestGateReleaseAllocs(t *testing.T) {
	const detections = 200
	var g Gate
	far := simtime.Time(1e9)
	for i := range 3 {
		g.Add(SlowdownEvent{RunID: "held", ReadWindow: simtime.NewInterval(far, far.Add(simtime.Duration(i+1)))})
	}
	evs := make([]SlowdownEvent, detections+1) // AllocsPerRun adds a warm-up call
	for i := range evs {
		end := simtime.Time(simtime.Duration(i+1) * 30 * simtime.Minute)
		evs[i] = SlowdownEvent{Query: "Q2", RunID: "ready", ReadWindow: simtime.NewInterval(end.Add(-simtime.Hour), end)}
	}
	i := 0
	got := testing.AllocsPerRun(detections, func() {
		g.Add(evs[i])
		if out := g.Release(evs[i].ReadWindow.End); len(out) != 1 || out[0].RunID != "ready" {
			t.Fatalf("release %d freed %d detections, want the one ready", i, len(out))
		}
		i++
	})
	t.Logf("%.0f allocations per detection through the gate", got)
	if n := g.Pending(); n != 3 {
		t.Fatalf("%d detections pending, want the 3 held", n)
	}
	if got > gateReleaseAllocs {
		t.Errorf("%.0f allocations per detection through the gate, budget %d", got, gateReleaseAllocs)
	}
}
