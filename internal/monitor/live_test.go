//go:build !race

package monitor

import (
	"runtime"
	"testing"

	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/workload"
)

// liveBytesPerRun is the budget of one run the history ring holds: the
// 2424 bytes measured when it was set plus at most 10 % headroom. It
// covers the record (144 B), its operators' measurements (25 × 72 B for
// Q2's plan here, in a 2048-byte size class), its run ID, its ring slot
// and a share of the plan every run of it references.
const liveBytesPerRun = 2600

// TestLiveBytesPerRun pins what a run costs a serving node for as long
// as the monitor keeps it: a monitor is fed several days of engine runs
// and the testbed is dropped; the heap that is freed when the monitor is
// dropped too is divided by the runs its ring held.
//
// Built without -race, whose shadow memory inflates the heap; CI runs it
// in the allocation-budget step.
func TestLiveBytesPerRun(t *testing.T) {
	const days = 3
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	m := New(Config{})
	observeDays(t, m, days)
	held := 0
	m.mu.Lock()
	for _, st := range m.states {
		held += len(st.hist)
	}
	m.mu.Unlock()
	if st := m.Stats(); st.Observed != days*48 || st.Events != 0 || held != m.cfg.History {
		t.Fatalf("stats %+v, %d runs held; want %d healthy runs observed and a full ring of %d", st, held, days*48, m.cfg.History)
	}
	with := heap()
	runtime.KeepAlive(m)
	without := heap()

	perRun := float64(with-without) / float64(held)
	t.Logf("%.0f live bytes per run held", perRun)
	if perRun > liveBytesPerRun {
		t.Fatalf("%.0f live bytes per run held, budget %d", perRun, liveBytesPerRun)
	}
}

// observeDays simulates the Figure 1 testbed's healthy Q2 schedule for
// the given number of days with m on its engine's completion tap, then
// drops the testbed.
func observeDays(t *testing.T, m *Monitor, days int) {
	t.Helper()
	tb, err := testbed.NewFigure1(1)
	if err != nil {
		t.Fatal(err)
	}
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: days * 48},
	}
	tb.Engine.OnRunComplete = m.Observe
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
}
