package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"diads/internal/diag"
	"diads/internal/fleet"
	"diads/internal/metrics"
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
)

// TestFleetRetentionParity pins the evidence-horizon contract end to
// end: a fleet run with retention on — barrier-time truncation of every
// instance's metric store, SAN timelines, and run history to its low
// watermark, plus the hibernate/rehydrate instance lifecycle under a
// tight resident cap — must render a report byte-identical to the
// retention-off twin of the same seed, across shard counts and chunk
// sizes. Truncation anchors prefix sums to the series origin, low
// watermarks bound every window a future diagnosis can read, and cached
// artifacts are pure functions of instance state; this sweep is where
// all three claims meet the whole pipeline, learning loop included.
func TestFleetRetentionParity(t *testing.T) {
	// A short monitor history ring advances the low watermark within the
	// 12-run timeline, and 16-sample segments let the store free evidence
	// behind it; neither knob affects values, and both twins share them.
	base := FleetSpec{
		Seed: testSeed, Instances: 8, Degraded: 6, Runs: 12,
		Monitor:      monitor.Config{History: 6},
		StoreSegment: 16,
	}
	want, _, err := RunFleetSpec(base)
	if err != nil {
		t.Fatal(err)
	}
	// The scenario must exercise the machinery retention could perturb:
	// detections, learning installs, cross-instance transfers.
	if len(want.Learning.Installed) == 0 || want.Learning.Transfers == 0 {
		t.Fatalf("parity scenario did not exercise symptom learning:\n%s", want.Render())
	}

	cases := []struct {
		name string
		mod  func(*FleetSpec)
	}{
		{"shards-1", func(s *FleetSpec) { s.Shards = 1 }},
		{"shards-2", func(s *FleetSpec) { s.Shards = 2 }},
		{"shards-4", func(s *FleetSpec) { s.Shards = 4 }},
		{"shards-8", func(s *FleetSpec) { s.Shards = 8 }},
		{"chunk-5min", func(s *FleetSpec) { s.Chunk = 5 * simtime.Minute }},
		{"chunk-30min-shards-4", func(s *FleetSpec) {
			s.Chunk = 30 * simtime.Minute
			s.Shards = 4
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := base
			spec.Retention = true
			// A cap of 1 resident per shard forces the hibernate →
			// rehydrate cycle on nearly every barrier, the harshest
			// lifecycle schedule.
			spec.ResidentCap = 1
			c.mod(&spec)
			before := metrics.TruncatedTotal()
			rep, _, err := RunFleetSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if metrics.TruncatedTotal() == before {
				t.Error("retention-enabled run truncated nothing; the parity check is vacuous")
			}
			if rep.Render() != want.Render() {
				t.Errorf("retention changed the fleet report\n--- retention off ---\n%s\n--- %s ---\n%s",
					want.Render(), c.name, rep.Render())
			}
		})
	}
}

// TestRetentionBehindPoolKeepsEveryDiagnosis holds retention behind the
// pool's in-flight floor to the strictest reading of "cannot change a
// diagnosis": the three-day faulty stream is driven twice through the
// API node's release step — release, submit, and on one side
// Retain(Floor) with the diagnoses it just submitted still running — and
// every diagnosis, by trace ID, must report the same text and the same
// anomaly score on every (component, metric), bit for bit. The ranked
// tuple TestCrossModeEquivalence compares is quantised; this is not.
func TestRetentionBehindPoolKeepsEveryDiagnosis(t *testing.T) {
	drive := func(retain bool) map[string]string {
		env, err := BuildOnline(OnlineSpec{Seed: testSeed, Runs: 144})
		if err != nil {
			t.Fatal(err)
		}
		tb := env.Testbed
		inst := &fleet.Instance{Testbed: tb, Monitor: env.Monitor}
		svc := service.New(fleet.EnvOf(tb, symptoms.Builtin()), service.Config{})
		var mu sync.Mutex
		seen := make(map[string]string)
		svc.OnDiagnosis = func(ev monitor.SlowdownEvent, res *diag.Result) {
			var b strings.Builder
			b.WriteString(res.Render())
			for _, s := range res.DA.Scores {
				fmt.Fprintf(&b, "%s/%s %x\n", s.Component, s.Metric, math.Float64bits(s.Score))
			}
			mu.Lock()
			seen[ev.TraceID] = b.String()
			mu.Unlock()
		}
		svc.Start(context.Background())
		defer svc.Stop()
		tick := func(watermark simtime.Time) error {
			if err := svc.SubmitAll(inst.Release(watermark)); err != nil {
				return err
			}
			if retain {
				inst.Retain(svc)
			}
			return nil
		}
		if err := tb.SimulateStream(30*simtime.Minute, tick); err != nil {
			t.Fatal(err)
		}
		if err := tick(monitor.EndOfStream); err != nil {
			t.Fatal(err)
		}
		svc.Wait()
		if st := svc.Stats(); st.Failed != 0 || st.Rejected != 0 {
			t.Fatalf("retain=%v: %s", retain, st)
		}
		return seen
	}
	want := drive(false)
	truncated := metrics.TruncatedTotal()
	got := drive(true)
	if metrics.TruncatedTotal() == truncated {
		t.Fatal("the retaining side truncated nothing; the check is vacuous")
	}
	if len(want) < 20 || len(got) != len(want) {
		t.Fatalf("%d diagnoses without retention, %d with; want at least 20 and the same number", len(want), len(got))
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("diagnosis %s changed under retention\n--- never truncated ---\n%s\n--- retained ---\n%s", id, w, got[id])
		}
	}
}
