package monitor

import (
	"fmt"
	"testing"

	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/metrics"
	"diads/internal/simtime"
)

// fakeRun fabricates a run record; the monitor reads only identity and
// the start/stop interval.
func fakeRun(query string, i int, start simtime.Time, dur simtime.Duration) *exec.RunRecord {
	return &exec.RunRecord{
		Query: query,
		RunID: fmt.Sprintf("run-%s-%03d", query, i),
		Start: start,
		Stop:  start.Add(dur),
	}
}

// feed pushes n runs of the given duration pattern through the monitor.
func feed(m *Monitor, query string, n int, dur func(i int) simtime.Duration) {
	for i := 0; i < n; i++ {
		start := simtime.Time(simtime.Duration(i) * 30 * simtime.Minute)
		m.Observe(fakeRun(query, i, start, dur(i)))
	}
}

// drain releases everything the monitor holds.
func drain(m *Monitor) []SlowdownEvent {
	return m.Release(EndOfStream)
}

func TestSteadyWorkloadRaisesNoEvents(t *testing.T) {
	m := New(Config{})
	// ±4% wobble around 60s, well inside 3 sigma of itself.
	feed(m, "Q2", 40, func(i int) simtime.Duration {
		return simtime.Duration(60 + 2.4*float64(i%5-2))
	})
	if evs := drain(m); len(evs) != 0 {
		t.Fatalf("steady workload produced %d events, first: %v", len(evs), evs[0])
	}
	st := m.Stats()
	if st.Observed != 40 || st.Events != 0 {
		t.Fatalf("stats = %+v, want 40 observed / 0 events", st)
	}
}

func TestInjectedSlowdownDetected(t *testing.T) {
	m := New(Config{})
	// 10 baseline runs at ~60s, then a 1.8x regime.
	feed(m, "Q2", 16, func(i int) simtime.Duration {
		if i < 10 {
			return simtime.Duration(60 + float64(i%3))
		}
		return simtime.Duration(108)
	})
	evs := drain(m)
	if len(evs) != 6 {
		t.Fatalf("got %d events, want one per degraded run (6)", len(evs))
	}
	ev := evs[0]
	if ev.Kind != KindThreshold {
		t.Errorf("first event kind = %s, want %s", ev.Kind, KindThreshold)
	}
	if ev.RunID != "run-Q2-010" {
		t.Errorf("first event run = %s, want run-Q2-010 (first degraded)", ev.RunID)
	}
	if ev.Factor < 1.5 {
		t.Errorf("factor = %.2f, want >= 1.5", ev.Factor)
	}
	// The baseline must not have been poisoned by the degraded runs:
	// every degraded run keeps firing against the pre-onset mean.
	last := evs[len(evs)-1]
	if last.Baseline > simtime.Duration(65) {
		t.Errorf("baseline drifted to %s; degraded runs leaked into it", last.Baseline)
	}
}

func TestEventSnapshotIsDiagnosable(t *testing.T) {
	m := New(Config{})
	feed(m, "Q2", 12, func(i int) simtime.Duration {
		if i < 10 {
			return 60
		}
		return 120
	})
	evs := drain(m)
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	for _, ev := range evs {
		for _, r := range ev.Runs {
			if !ev.Window.Contains(r.Start) {
				t.Errorf("run %s starts outside the event window %v", r.RunID, ev.Window)
			}
		}
	}
	ev := evs[len(evs)-1]
	var sat, unsat int
	for _, r := range ev.Runs {
		if ev.Satisfactory[r.RunID] {
			sat++
		} else {
			unsat++
		}
	}
	// diag.Input needs >= 3 satisfactory and >= 1 unsatisfactory runs.
	if sat < 3 || unsat < 1 {
		t.Fatalf("snapshot has %d sat / %d unsat, not diagnosable", sat, unsat)
	}
	if ev.Satisfactory[ev.RunID] {
		t.Errorf("the offending run %s is labeled satisfactory", ev.RunID)
	}
}

// TestEventCarriesEvidenceReadWindow pins the evidence-window contract on
// the event itself: the window spans the snapshot's runs and ends at the
// offending run's stop, the read window is exactly metrics.ReadWindow of
// it, and every run's own padded read window — what Module DA and the
// silo baselines actually query — lies inside the event's, which is the
// containment that makes gating on ReadWindow.End sufficient.
func TestEventCarriesEvidenceReadWindow(t *testing.T) {
	m := New(Config{})
	feed(m, "Q2", 12, func(i int) simtime.Duration {
		if i < 10 {
			return 60
		}
		return 120
	})
	evs := drain(m)
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	for _, ev := range evs {
		if ev.Window.End != ev.At {
			t.Errorf("window %v should end at the offending run's stop %v", ev.Window, ev.At)
		}
		if ev.ReadWindow != metrics.ReadWindow(ev.Window) {
			t.Errorf("read window %v is not metrics.ReadWindow(%v)", ev.ReadWindow, ev.Window)
		}
		for _, r := range ev.Runs {
			rw := metrics.ReadWindow(simtime.NewInterval(r.Start, r.Stop))
			if rw.Start < ev.ReadWindow.Start || rw.End > ev.ReadWindow.End {
				t.Errorf("run %s read window %v escapes the event's %v", r.RunID, rw, ev.ReadWindow)
			}
		}
	}
}

func TestChangePointCatchesSlowDrift(t *testing.T) {
	m := New(Config{SigmaK: 50, MinFactor: 4}) // threshold path disabled
	// 10 flat runs, then a persistent +15% regime: each run is far from
	// 4x the baseline, but the drift accumulates.
	feed(m, "Q2", 40, func(i int) simtime.Duration {
		if i < 10 {
			return 60
		}
		return 69
	})
	evs := drain(m)
	if len(evs) == 0 {
		t.Fatal("Page-Hinkley missed a sustained 15% drift")
	}
	if evs[0].Kind != KindChangePoint {
		t.Errorf("kind = %s, want %s", evs[0].Kind, KindChangePoint)
	}
}

func TestPerQueryIsolation(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 16; i++ {
		start := simtime.Time(simtime.Duration(i) * 30 * simtime.Minute)
		m.Observe(fakeRun("Q2", i, start, 60))
		d := simtime.Duration(30)
		if i >= 10 {
			d = 90 // only Q6 degrades
		}
		m.Observe(fakeRun("Q6", i, start.Add(simtime.Minute), d))
	}
	evs := drain(m)
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	for _, ev := range evs {
		if ev.Query != "Q6" {
			t.Errorf("event for %s; only Q6 degraded", ev.Query)
		}
	}
}

// TestReleaseLosesNoDetection pins the lossless delivery path: however
// many detections pile up between two Release calls (the old event
// channel shed everything past 64), each one comes out exactly once, in
// arrival order, and a Release with nothing ready allocates nothing.
func TestReleaseLosesNoDetection(t *testing.T) {
	m := New(Config{History: 256}) // the baseline runs must stay in the ring
	if got := m.Release(0); got != nil {
		t.Fatalf("empty monitor released %v", got)
	}
	feed(m, "Q2", 210, func(i int) simtime.Duration {
		if i < 10 {
			return 60
		}
		return 150
	})
	if m.Pending() != 200 {
		t.Fatalf("pending = %d, want 200", m.Pending())
	}
	if lw, ok := m.LowWatermark(); !ok || lw > 0 {
		t.Errorf("low watermark = %v, %v; held events still read from the first run on", lw, ok)
	}
	if avg := testing.AllocsPerRun(20, func() { m.Release(0) }); avg != 0 {
		t.Errorf("Release with nothing ready allocates %v times", avg)
	}
	evs := drain(m)
	if len(evs) != 200 || m.Pending() != 0 {
		t.Fatalf("released %d events, %d still pending; want 200 and 0", len(evs), m.Pending())
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("run-Q2-%03d", i+10); ev.RunID != want {
			t.Fatalf("event %d is %s, want %s (arrival order)", i, ev.RunID, want)
		}
	}
	if st := m.Stats(); st.Events != 200 || st.Undiagnosable != 0 {
		t.Errorf("stats = %+v, want 200 events / 0 undiagnosable", st)
	}
	if got := drain(m); len(got) != 0 {
		t.Errorf("second release returned %d events again", len(got))
	}
}

// TestNoEventWithoutDiagnosableBaseline pins the floor the monitor shares
// with diag: once a degraded regime has pushed all but two satisfactory
// runs out of the history ring, further degraded runs are counted, not
// minted — a diagnosis of their snapshot would fail input validation.
func TestNoEventWithoutDiagnosableBaseline(t *testing.T) {
	m := New(Config{History: 8})
	feed(m, "Q2", 30, func(i int) simtime.Duration {
		if i < 10 {
			return 60
		}
		return 150
	})
	evs := drain(m)
	// Ring of 8: degraded run k (1-based) leaves 8-k satisfactory runs.
	if len(evs) != 8-diag.MinSatisfactory {
		t.Fatalf("%d events, want %d", len(evs), 8-diag.MinSatisfactory)
	}
	for _, ev := range evs {
		sat := 0
		for _, good := range ev.Satisfactory {
			if good {
				sat++
			}
		}
		if sat < diag.MinSatisfactory {
			t.Errorf("event %s snapshots %d satisfactory runs", ev.RunID, sat)
		}
	}
	if st := m.Stats(); st.Events != int64(len(evs)) || st.Undiagnosable != 20-int64(len(evs)) {
		t.Errorf("stats = %+v, want %d events and the other degraded runs undiagnosable", st, len(evs))
	}
}

func TestGateReleasesOnlyCoveredWindows(t *testing.T) {
	g := &Gate{}
	mk := func(id string, end simtime.Time) SlowdownEvent {
		return SlowdownEvent{RunID: id, ReadWindow: simtime.NewInterval(0, end)}
	}
	g.Add(mk("a", 100))
	g.Add(mk("b", 250))
	g.Add(mk("c", 180))

	if got := g.Release(50); len(got) != 0 {
		t.Fatalf("released %d events before any window closed", len(got))
	}
	got := g.Release(200)
	if len(got) != 2 || got[0].RunID != "a" || got[1].RunID != "c" {
		t.Fatalf("watermark 200 released %v, want [a c] in arrival order", got)
	}
	if g.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", g.Pending())
	}
	if got := g.Release(300); len(got) != 1 || got[0].RunID != "b" {
		t.Fatalf("final release = %v, want [b]", got)
	}
	if got := g.Release(1000); len(got) != 0 {
		t.Fatalf("empty gate released %v", got)
	}
}

// TestGateReleaseBoundaryInclusive pins Release's boundary rule: an
// event whose read window ends exactly at the watermark is released
// (sound because the watermark covers every sample with timestamp <= it,
// and read windows are half-open, so such an event reads only samples
// strictly before the watermark); one ending any later is held.
func TestGateReleaseBoundaryInclusive(t *testing.T) {
	g := &Gate{}
	g.Add(SlowdownEvent{RunID: "edge", ReadWindow: simtime.NewInterval(0, 300)})
	if got := g.Release(299); len(got) != 0 {
		t.Fatalf("released %d events below the window end", len(got))
	}
	got := g.Release(300)
	if len(got) != 1 || got[0].RunID != "edge" {
		t.Fatalf("watermark == ReadWindow.End must release the event, got %v", got)
	}
	g.Add(SlowdownEvent{RunID: "late", ReadWindow: simtime.NewInterval(0, simtime.Time(300).Add(simtime.Duration(1e-6)))})
	if got := g.Release(300); len(got) != 0 {
		t.Fatalf("a window ending past the watermark must be held, got %v", got)
	}
	if g.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", g.Pending())
	}
}

func TestWatcherAlertsOnDegradedSeries(t *testing.T) {
	store := metrics.NewStore()
	w := NewWatcher(store, Config{MinRuns: 6})
	w.Watch("vol-V1", metrics.VolReadTime)
	w.Watch("vol-V2", metrics.VolReadTime)

	for i := 0; i < 30; i++ {
		tstamp := simtime.Time(simtime.Duration(i) * 5 * simtime.Minute)
		v1 := 0.010
		if i >= 15 {
			v1 = 0.025 // V1 degrades halfway
		}
		store.MustAppend("vol-V1", metrics.VolReadTime, metrics.Sample{T: tstamp, V: v1})
		store.MustAppend("vol-V2", metrics.VolReadTime, metrics.Sample{T: tstamp, V: 0.012})
		if i == 10 {
			// Interleaved polling must pick up only the delta.
			if alerts := w.Poll(); len(alerts) != 0 {
				t.Fatalf("alerts before degradation: %v", alerts)
			}
		}
	}
	alerts := w.Poll()
	if len(alerts) != 15 {
		t.Fatalf("got %d alerts, want 15 (every degraded V1 sample)", len(alerts))
	}
	for _, a := range alerts {
		if a.Component != "vol-V1" {
			t.Errorf("alert on %s; only vol-V1 degraded", a.Component)
		}
	}
	if again := w.Poll(); len(again) != 0 {
		t.Errorf("re-poll with no new samples alerted: %v", again)
	}
}
