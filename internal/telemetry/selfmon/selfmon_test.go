package selfmon

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"diads/internal/monitor"
	"diads/internal/telemetry"
)

// TestDogfoodRaisesSlowdownEvent pins the loop the package exists for:
// steady diagnosis latency establishes a baseline, one inflated
// diagnosis raises an ordinary SlowdownEvent about diadsd itself.
func TestDogfoodRaisesSlowdownEvent(t *testing.T) {
	sm := New()
	for i := 0; i < 10; i++ {
		sm.ObserveDiagnosis("Q2", 10*time.Millisecond)
	}
	if evs := sm.Drain(); len(evs) != 0 {
		t.Fatalf("steady latency raised %d events, want 0: %v", len(evs), evs)
	}

	sm.ObserveDiagnosis("Q2", 200*time.Millisecond)
	evs := sm.Drain()
	if len(evs) != 1 {
		t.Fatalf("inflated latency raised %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Query != "self:Q2" {
		t.Errorf("event query = %q, want self:Q2", ev.Query)
	}
	if ev.Kind != monitor.KindThreshold {
		t.Errorf("event kind = %q, want %q", ev.Kind, monitor.KindThreshold)
	}
	if ev.Factor < 2 {
		t.Errorf("event factor = %.2f, want a clear inflation (>= 2)", ev.Factor)
	}
	if ev.TraceID == "" {
		t.Error("event has no trace ID")
	}

	if st := sm.Stats(); st.Observed != 11 || st.Events != 1 {
		t.Errorf("self-monitor stats = %+v, want 11 observed / 1 event", st)
	}
}

// TestSelfStoreSeries pins the metrics side of the loop: every
// observation lands in the self store's wall-time series in time order.
func TestSelfStoreSeries(t *testing.T) {
	sm := New()
	walls := []time.Duration{
		5 * time.Millisecond, 7 * time.Millisecond, 300 * time.Millisecond,
	}
	for _, w := range walls {
		sm.ObserveDiagnosis("Q7", w)
	}
	samples := sm.Store().Series(SelfComponent, SelfMetric)
	if len(samples) != len(walls) {
		t.Fatalf("store has %d samples, want %d", len(samples), len(walls))
	}
	for i, s := range samples {
		if want := walls[i].Seconds(); s.V != want {
			t.Errorf("sample %d = %v, want %v", i, s.V, want)
		}
		if i > 0 && s.T <= samples[i-1].T {
			t.Errorf("sample %d out of time order: %v after %v", i, s.T, samples[i-1].T)
		}
	}
}

// recorded are the 29 diagnosis wall times (µs) of one lone
// `diadsd -quiet -runs 160 -seed 42`: the cost creeps up as the run
// history fills and falls as the stream ends. Fed raw to the monitor
// they raised 13 events.
var recorded = []time.Duration{
	1193, 1163, 1187, 1301, 1375, 1481, 2423, 1893, 2032, 1944, 1973, 1870, 1867, 1872, 1860,
	1805, 2044, 2067, 1773, 1755, 1667, 1687, 1576, 1491, 1476, 1331, 1280, 1394, 720,
}

// observe feeds walls (µs) to sm as diagnoses of Q2 and returns the
// events drained after each, by the index of the diagnosis.
func observe(sm *SelfMonitor, walls []time.Duration) map[int]int {
	raised := make(map[int]int)
	for i, w := range walls {
		sm.ObserveDiagnosis("Q2", w*time.Microsecond)
		if n := len(sm.Drain()); n > 0 {
			raised[i] = n
		}
	}
	return raised
}

// TestNoiseFloor holds the self-monitor to its noise model: the recorded
// stream, and the same stream with one-off 2×, 3× and 4× diagnoses in
// it, raise nothing; a sustained 3× step raises an event within its
// first 10 diagnoses.
func TestNoiseFloor(t *testing.T) {
	if raised := observe(New(), recorded); len(raised) != 0 {
		t.Errorf("recorded stream raised events at diagnoses %v, want none", raised)
	}

	spiky := slices.Clone(recorded)
	for i, f := range map[int]time.Duration{7: 2, 10: 4, 13: 3, 17: 4, 21: 2, 24: 3} {
		spiky[i] *= f
	}
	if raised := observe(New(), spiky); len(raised) != 0 {
		t.Errorf("one-off spikes raised events at diagnoses %v, want none", raised)
	}

	const before = 12
	step := slices.Clone(recorded[:before])
	for _, w := range recorded[before : before+10] {
		step = append(step, 3*w)
	}
	sm := New()
	raised := observe(sm, step)
	first := len(step)
	for i := range raised {
		first = min(first, i)
	}
	if first < before || first >= len(step) {
		t.Fatalf("sustained 3x step raised events at diagnoses %v, want the first in [%d, %d)", raised, before, len(step))
	}
	if st := sm.Stats(); st.Events == 0 || st.Observed != int64(len(step)) {
		t.Errorf("stats = %+v, want %d observed and the reported events", st, len(step))
	}
}

// TestConcurrentObserve: service workers report diagnoses from many
// goroutines at once. Every one must land in the store in time order
// (MustAppend panics otherwise) and be counted.
func TestConcurrentObserve(t *testing.T) {
	sm := New()
	const workers, each = 4, 200
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				sm.ObserveDiagnosis(fmt.Sprintf("Q%d", w%2), time.Duration(1000+i%7*100)*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	sm.Drain()
	samples := sm.Store().Series(SelfComponent, SelfMetric)
	if len(samples) != workers*each {
		t.Fatalf("store holds %d samples, want %d", len(samples), workers*each)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].T <= samples[i-1].T {
			t.Fatalf("sample %d out of time order: %v after %v", i, samples[i].T, samples[i-1].T)
		}
	}
	if st := sm.Stats(); st.Observed != workers*each {
		t.Errorf("observed %d, want %d", st.Observed, workers*each)
	}
}

// monitorFamilies sums every diads_monitor_* counter series in the
// process-wide registry, by family.
func monitorFamilies() map[string]float64 {
	out := make(map[string]float64)
	for _, fam := range telemetry.Default().Snapshot() {
		if strings.HasPrefix(fam.Name, "diads_monitor_") {
			for _, s := range fam.Series {
				out[fam.Name] += s.Value
			}
		}
	}
	return out
}

// TestSelfDetectionsStayOutOfMonitorCounters: the self-monitor's
// detector raises an event the noise floor drops, and the product
// monitor families (runs observed, slowdown events, undiagnosable runs)
// do not move; only the diads_self_* families count the diagnoses.
func TestSelfDetectionsStayOutOfMonitorCounters(t *testing.T) {
	before := monitorFamilies()
	sm := New()
	walls := slices.Repeat([]time.Duration{100}, 10)
	walls = append(walls, slices.Repeat([]time.Duration{500}, 5)...)
	if raised := observe(sm, walls); len(raised) != 0 {
		t.Fatalf("sub-floor step raised events at diagnoses %v, want none reported", raised)
	}
	if st := sm.mon.Stats(); st.Events == 0 || st.Observed != int64(len(walls)) {
		t.Fatalf("detector stats = %+v, want %d observed and a raw event under the floor", st, len(walls))
	}
	if after := monitorFamilies(); !maps.Equal(before, after) {
		t.Errorf("diads_monitor_* counters moved: %v -> %v", before, after)
	}
}
