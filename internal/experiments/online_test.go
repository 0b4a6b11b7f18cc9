package experiments

import (
	"strings"
	"testing"

	"diads/internal/symptoms"
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
		t.Errorf("top incident = %s %s(%s), want Q2 %s(%s)",
			top.Query, top.Kind, top.Subject,
			symptoms.CauseSANMisconfig, testbed.VolV1)
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
