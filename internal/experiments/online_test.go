package experiments

import (
	"strings"
	"testing"

	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/telemetry"
)

func TestOnlinePipelineEndToEnd(t *testing.T) {
	res, err := Online(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("monitor never detected the injected SAN misconfiguration")
	}
	if res.DetectionLag <= 0 || res.FirstDetection < res.Onset {
		t.Errorf("detection at %v precedes onset %v", res.FirstDetection, res.Onset)
	}
	if res.FalsePositives != 0 {
		t.Errorf("%d events for queries the fault does not touch", res.FalsePositives)
	}
	if res.Events == 0 || res.Service.Completed == 0 {
		t.Fatalf("pipeline idle: %d events, %d diagnoses", res.Events, res.Service.Completed)
	}
	if res.Service.Failed != 0 {
		t.Errorf("%d diagnoses failed", res.Service.Failed)
	}
	// Cache effectiveness is asserted on Stats, never on Render: hit
	// counts depend on worker interleaving and release batching.
	if res.Service.APG.Hits == 0 {
		t.Error("APG cache never hit despite repeated same-plan diagnoses")
	}
	if int64(res.Events) != res.Monitor.Events {
		t.Errorf("%d of %d minted events released", res.Events, res.Monitor.Events)
	}
	if len(res.Incidents) == 0 {
		t.Fatal("no incidents registered")
	}
	top := res.Incidents[0]
	if !res.Correct {
		t.Errorf("top incident = %s %s(%s), not in the injected fault's answer",
			top.Query, top.Kind, top.Subject)
	}
	if res.Alerts == 0 {
		t.Error("metric watcher saw no degradation on the victim volume")
	}
	for _, want := range []string{"first detection", "slowdown events", "top incident correct true"} {
		if !strings.Contains(res.Render(), want) {
			t.Errorf("render missing %q:\n%s", want, res.Render())
		}
	}
}

// TestOnlinePlateau is the retention acceptance test on the
// single-instance driver: a healthy week — more than ten lengths of the
// monitor's 16-hour ring — streamed in 30-minute chunks stops growing
// once the ring has filled. The driver's store is its own, so it is
// observed the way an operator would: diads_store_samples_live, which
// nothing else moves while the driver runs, never rises by more than
// 1.25 × the second day's peak after that day.
func TestOnlinePlateau(t *testing.T) {
	exposed := func() float64 {
		for _, fam := range telemetry.Default().Snapshot() {
			if fam.Name == "diads_store_samples_live" {
				return fam.Series[0].Value
			}
		}
		t.Fatal("diads_store_samples_live is not registered")
		return 0
	}
	base, truncated := exposed(), metrics.TruncatedTotal()
	var day2, after, last float64
	_, err := RunOnline(OnlineSpec{Seed: testSeed, Runs: 336, NoFault: true}, 30*simtime.Minute,
		func(tick OnlineTick) error {
			last = exposed() - base
			switch {
			case tick.Now <= simtime.Time(simtime.Day):
			case tick.Now <= simtime.Time(2*simtime.Day):
				day2 = max(day2, last)
			default:
				after = max(after, last)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	appended := last + float64(metrics.TruncatedTotal()-truncated)
	t.Logf("appended %.0f samples; day-2 peak %.0f live, later peak %.0f", appended, day2, after)
	if day2 == 0 || after > 1.25*day2 {
		t.Errorf("store peaks at %.0f samples after day 2, %.0f during it: no plateau", after, day2)
	}
	if appended < 5*after {
		t.Errorf("appended %.0f samples against a plateau of %.0f: the stream is too short to show one", appended, after)
	}
}
