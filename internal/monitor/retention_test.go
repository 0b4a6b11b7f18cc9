package monitor

import (
	"runtime"
	"testing"
	"weak"

	"diads/internal/exec"
	"diads/internal/simtime"
)

// TestRingKeepsOnlyHistory pins how long the monitor keeps a run: a
// hundred healthy runs of one query go through Observe and the test lets
// go of every one. After a collection exactly the newest History runs
// are reachable, the ones the ring holds; no evicted run survives in the
// ring's backing array.
func TestRingKeepsOnlyHistory(t *testing.T) {
	const runs = 100
	m := New(Config{})
	held := observeWeakly(m, runs)
	runtime.GC()
	if st := m.Stats(); st.Events != 0 {
		t.Fatalf("healthy runs raised %d events; the gate would hold their runs", st.Events)
	}
	for i, w := range held {
		alive, want := w.Value() != nil, i >= runs-m.cfg.History
		if alive != want {
			t.Errorf("run %d of %d reachable = %v, want %v (history %d)", i, runs, alive, want, m.cfg.History)
		}
	}
	runtime.KeepAlive(m)
}

// observeWeakly feeds m n steady runs of Q2 and returns only weak
// pointers to them, so the monitor holds the sole strong references.
func observeWeakly(m *Monitor, n int) []weak.Pointer[exec.RunRecord] {
	held := make([]weak.Pointer[exec.RunRecord], n)
	for i := range held {
		rec := fakeRun("Q2", i, simtime.Time(simtime.Duration(i)*30*simtime.Minute), 60)
		held[i] = weak.Make(rec)
		m.Observe(rec)
	}
	return held
}

// TestGateKeepsNothingReleased pins that Release hands a detection on
// and lets go of it: after a release that frees two of three pending
// events, the released events' run snapshots are unreachable from the
// gate while the held one's stay.
func TestGateKeepsNothingReleased(t *testing.T) {
	var g Gate
	held := addWeakly(&g, []simtime.Time{100, 300, 200})
	if got := len(g.Release(200)); got != 2 {
		t.Fatalf("released %d events, want 2", got)
	}
	runtime.GC()
	for i, w := range held {
		alive, want := w.Value() != nil, i == 1
		if alive != want {
			t.Errorf("run of event %d reachable = %v, want %v", i, alive, want)
		}
	}
	if g.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", g.Pending())
	}
}

// addWeakly adds one event per read-window end to g, each snapshotting a
// run of its own, and returns only weak pointers to those runs.
func addWeakly(g *Gate, ends []simtime.Time) []weak.Pointer[exec.RunRecord] {
	held := make([]weak.Pointer[exec.RunRecord], len(ends))
	for i, end := range ends {
		rec := fakeRun("Q2", i, 0, 60)
		held[i] = weak.Make(rec)
		g.Add(SlowdownEvent{
			RunID:        rec.RunID,
			ReadWindow:   simtime.NewInterval(0, end),
			Runs:         []*exec.RunRecord{rec},
			Satisfactory: map[string]bool{rec.RunID: false},
		})
	}
	return held
}
