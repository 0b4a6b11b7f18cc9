//go:build !race

package service

import (
	"context"
	"testing"

	"diads/internal/monitor"
	"diads/internal/simtime"
)

// submitAllocs is the allocation budget of admitting one job — SubmitAll
// of one event through dequeue and settlement, without the diagnosis —
// the count measured when it was set plus at most 10 % headroom. A change
// that needs more allocations raises the ceiling in the open, with its
// reason; one that needs fewer lowers it.
const submitAllocs = 1

// TestSubmitAllocs holds one admission to its allocation budget. The
// event names an instance with no registered environment, so a worker
// dequeues it and fails it before any diagnosis runs; a failed job caches
// no result, so every iteration admits the same key afresh. The race
// detector adds allocations, so the test is built only without it; CI
// runs it in the allocation-budget step.
func TestSubmitAllocs(t *testing.T) {
	svc := New(Env{}, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	defer svc.Stop()
	evs := []monitor.SlowdownEvent{{
		Instance: "unregistered", Query: "Q2",
		ReadWindow: simtime.NewInterval(0, simtime.Time(simtime.Hour)),
	}}
	const runs = 200
	got := testing.AllocsPerRun(runs, func() {
		if err := svc.SubmitAll(evs); err != nil {
			t.Fatal(err)
		}
		svc.Wait()
	})
	t.Logf("%.0f allocations per admitted job", got)
	if st := svc.Stats(); st.Submitted != runs+1 || st.Failed != runs+1 || st.Deduped+st.Rejected != 0 {
		t.Fatalf("want %d jobs admitted and failed, got %+v", runs+1, st)
	}
	if got > submitAllocs {
		t.Errorf("%.0f allocations per admitted job, budget %d", got, submitAllocs)
	}
}
