package experiments

import (
	"strings"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/faults"
	"diads/internal/fleet"
	"diads/internal/metrics"
	"diads/internal/monitor"
	"diads/internal/simtime"
	"diads/internal/telemetry"
	"diads/internal/testbed"
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

// faultFamilies lists one fault of each family with the parameters its
// batch scenario uses (scenarios.go), plus a parameter change, for the
// online scenario's onset and horizon. The online schedule starts where
// the scenarios' does, so the lock holds line up with the second-half
// runs.
var faultFamilies = []struct {
	name  string
	fault func(onset, horizon simtime.Time) faults.Fault
}{
	{"san-misconfig", func(onset, horizon simtime.Time) faults.Fault { return sanMisconfig(onset, horizon) }},
	{"external-load", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.ExternalVolumeLoad{
			LoadName: "wl-v1-heavy", Volume: testbed.VolV3,
			Window:   simtime.NewInterval(onset, horizon),
			ReadIOPS: 450, WriteIOPS: 120, DutyCycle: 1,
		}
	}},
	{"data-property", func(onset, _ simtime.Time) faults.Fault {
		return &faults.DataPropertyChange{At: onset, Table: dbsys.TPartsupp, Factor: 1.8}
	}},
	{"lock-contention", func(simtime.Time, simtime.Time) faults.Fault {
		return &faults.TableLockContention{Table: dbsys.TPartsupp, Holds: lockHolds(), Holder: "txn-batch"}
	}},
	{"index-drop", func(onset, _ simtime.Time) faults.Fault {
		return &faults.IndexDrop{At: onset, Index: dbsys.IdxPartsuppPart}
	}},
	{"cpu-saturation", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.CPUSaturation{Server: testbed.ServerDB, Window: simtime.NewInterval(onset, horizon), Load: 0.83}
	}},
	{"disk-failure", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.DiskFailure{Disk: "disk-3", Window: simtime.NewInterval(onset, horizon), RebuildIntensity: 0.45}
	}},
	{"raid-rebuild", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.RAIDRebuild{Pool: testbed.PoolP1, Window: simtime.NewInterval(onset, horizon), Intensity: 0.55}
	}},
	{"param-change", func(onset, _ simtime.Time) faults.Fault {
		return &faults.ParamChange{At: onset, Param: dbsys.ParamEnableIndexScan, Value: 0}
	}},
}

// TestOnlineDiagnosesEveryFamily streams each fault family through the
// online door — monitor, watermark gate, diagnosis service, registry —
// and checks the top incident against the fault's answer.
func TestOnlineDiagnosesEveryFamily(t *testing.T) {
	for _, tc := range faultFamilies {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunOnline(OnlineSpec{Seed: 400, Fault: tc.fault}, 30*simtime.Minute, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Service.Completed == 0 || res.Service.Failed != 0 {
				t.Fatalf("%d diagnoses completed, %d failed; want some, and none failed",
					res.Service.Completed, res.Service.Failed)
			}
			if len(res.Incidents) == 0 {
				t.Fatal("no incident filed")
			}
			top := res.Incidents[0]
			t.Logf("top incident %s %s(%s) from %d events", top.Query, top.Kind, top.Subject, res.Events)
			if !res.Correct {
				t.Errorf("top incident = %s %s(%s), not in the fault's answer", top.Query, top.Kind, top.Subject)
			}
		})
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
		func(b fleet.Barrier, _ []monitor.MetricAlert) error {
			last = exposed() - base
			switch {
			case b.Now <= simtime.Time(simtime.Day):
			case b.Now <= simtime.Time(2*simtime.Day):
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
