package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"diads/internal/fleet"
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
)

// TestOnlineChunkSizeDeterminism pins the evidence-window contract end to
// end: the online scenario's report must be byte-identical whether the
// simulation streams in 1-minute chunks, 5-minute chunks, the canonical
// 30-minute chunks, or one single batch chunk. Before the contract, a
// released event's diagnosis could read metric windows the emission
// watermark had not covered, so sub-4-minute chunks produced different
// reports than batch runs.
func TestOnlineChunkSizeDeterminism(t *testing.T) {
	base, err := RunOnline(OnlineSpec{Seed: testSeed}, 0, nil) // batch: the whole timeline as one chunk
	if err != nil {
		t.Fatal(err)
	}
	if !base.Correct || base.Events == 0 {
		t.Fatalf("batch run did not exercise the pipeline:\n%s", base.Render())
	}
	for _, chunk := range []simtime.Duration{
		simtime.Minute, // shorter than the monitor-interval padding: the racy regime
		5 * simtime.Minute,
		30 * simtime.Minute,
	} {
		res, err := RunOnline(OnlineSpec{Seed: testSeed}, chunk, nil)
		if err != nil {
			t.Fatalf("chunk %v: %v", chunk, err)
		}
		if res.Render() != base.Render() {
			t.Errorf("chunk %v report differs from batch\n--- batch ---\n%s\n--- chunk %v ---\n%s",
				chunk, base.Render(), chunk, res.Render())
		}
	}

	// A run long enough that one batch chunk raises more detections than
	// the monitor's old bounded event channel held (64, the rest shed):
	// batch and 30-minute chunking must submit the same diagnoses. It
	// also outlasts the history ring, pinning the diagnosability floor —
	// once the ring holds only degraded runs no further event is minted,
	// so no diagnosis fails input validation.
	long := OnlineSpec{Seed: testSeed, Runs: 160}
	batch, err := RunOnline(long, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := RunOnline(long, 30*simtime.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if chunked.Render() != batch.Render() {
		t.Errorf("160 runs: 30-minute chunks differ from batch\n--- batch ---\n%s\n--- chunked ---\n%s",
			batch.Render(), chunked.Render())
	}
	if chunked.Service.Submitted != batch.Service.Submitted || int(batch.Service.Submitted) != batch.Events {
		t.Errorf("160 runs: submitted %d (batch) vs %d (chunked) of %d events",
			batch.Service.Submitted, chunked.Service.Submitted, batch.Events)
	}
	if batch.Monitor.Undiagnosable == 0 {
		t.Error("160 runs: the degraded regime never outlasted the history ring; the floor went unexercised")
	}
	if batch.Service.Failed != 0 || chunked.Service.Failed != 0 {
		t.Errorf("160 runs: %d (batch) / %d (chunked) diagnoses failed", batch.Service.Failed, chunked.Service.Failed)
	}
}

// TestFleetChunkSizeDeterminism is the fleet-scale version: with the
// coordinator processing released events in evidence-time waves, the
// grouped fleet report — including the symptom-learning counters, the
// part of the report most sensitive to when diagnoses happen relative to
// mined-entry installs — must be byte-identical across chunk sizes.
func TestFleetChunkSizeDeterminism(t *testing.T) {
	spec := FleetSpec{Seed: testSeed, Instances: 4, Degraded: 3, Runs: 12}
	spec.Chunk = 48 * simtime.Hour // beyond the horizon: one barrier, the batch extreme
	base, _, err := RunFleetSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep must exercise the learning loop, or wave ordering goes
	// untested: an entry mined from early instances' confirmations has to
	// transfer to a later instance's diagnoses in every chunking.
	if len(base.Learning.Installed) == 0 || base.Learning.Transfers == 0 {
		t.Fatalf("sweep scenario did not exercise symptom learning:\n%s", base.Render())
	}
	for _, chunk := range []simtime.Duration{
		simtime.Minute,
		5 * simtime.Minute,
		10 * simtime.Minute, // the fleet default
	} {
		spec.Chunk = chunk
		rep, _, err := RunFleetSpec(spec)
		if err != nil {
			t.Fatalf("chunk %v: %v", chunk, err)
		}
		if rep.Render() != base.Render() {
			t.Errorf("chunk %v fleet report differs from batch\n--- batch ---\n%s\n--- chunk %v ---\n%s",
				chunk, base.Render(), chunk, rep.Render())
		}
	}
}

// TestBarrierHookObservesOnly pins fleet.Config.OnBarrier as a pure
// observer: a fleet run whose hook records every argument, and reads the
// service the way the online driver's does, renders the same report as
// the run without one. It also pins the hook's contract: every shard's
// hook runs at every fleet barrier, in order of time, and each sees
// exactly one Final barrier, its last. Under -race it also checks the
// hook's reads against the stepping instances and diagnosing workers.
func TestBarrierHookObservesOnly(t *testing.T) {
	spec := FleetSpec{Seed: testSeed, Instances: 4, Degraded: 3, Runs: 12}
	want, _, err := RunFleetSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		var order []*service.Service // shards in first-seen order
		seen := map[*service.Service][]fleet.Barrier{}
		var incidents []service.Incident
		spec := spec
		spec.Shards = shards
		spec.OnBarrier = func(b fleet.Barrier) error {
			if seen[b.Service] == nil {
				order = append(order, b.Service)
			}
			seen[b.Service] = append(seen[b.Service], b)
			if incs := b.Service.Registry().Incidents(); b.Final {
				incidents = append(incidents, incs...)
			}
			return nil
		}
		got, _, err := RunFleetSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Render() != want.Render() {
			t.Errorf("shards=%d: the hook changed the fleet report\n--- without ---\n%s\n--- with ---\n%s",
				shards, want.Render(), got.Render())
		}
		if len(order) != shards {
			t.Fatalf("shards=%d: the hook saw %d services", shards, len(order))
		}
		first := seen[order[0]]
		released, events := 0, 0
		for _, svc := range order {
			barriers := seen[svc]
			finals := 0
			for i, b := range barriers {
				released += len(b.Released)
				if b.Final {
					finals++
				}
				if i > 0 && b.Now < barriers[i-1].Now {
					t.Errorf("shards=%d: barrier %d at %v follows one at %v", shards, i, b.Now, barriers[i-1].Now)
				}
				if i < len(first) && (b.Now != first[i].Now || b.Final != first[i].Final) {
					t.Errorf("shards=%d: shard barrier %d is (%v, %v), the first shard's (%v, %v)",
						shards, i, b.Now, b.Final, first[i].Now, first[i].Final)
				}
			}
			if len(barriers) != len(first) || finals != 1 || !barriers[len(barriers)-1].Final {
				t.Errorf("shards=%d: a shard saw %d barriers (the first %d), %d final (want the last, alone)",
					shards, len(barriers), len(first), finals)
			}
		}
		for _, ir := range got.Instances {
			events += ir.Events
		}
		if released != events || len(incidents) == 0 {
			t.Errorf("shards=%d: %d events released (want %d), %d incidents at the end", shards, released, events, len(incidents))
		}
	}
}

// TestFleetValidationReviewDeterminism extends the determinism sweep to
// the full candidate lifecycle: a fleet run with healthy-corpus
// validation and the operator review gate enabled (a scripted operator
// acks the expected mined kind) must stay byte-identical across chunk
// sizes and across MaxStreams/worker settings. The corpus is built from
// quiet-window probes and low-confidence diagnoses captured mid-run, so
// this is the part of the report most sensitive to scheduling — pinned
// here so validation can never reintroduce the chunk-size race.
func TestFleetValidationReviewDeterminism(t *testing.T) {
	mined := symptoms.CauseSANMisconfig + symptoms.MinedSuffix
	base := FleetSpec{
		Seed: testSeed, Instances: 4, Degraded: 3, Runs: 12,
		OperatorReview: true, AckKinds: []string{mined},
	}
	spec := base
	spec.Chunk = 48 * simtime.Hour // one barrier: the batch extreme
	want, _, err := RunFleetSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	lr := want.Learning
	// The sweep must exercise the whole gate: healthy evidence captured,
	// an incident held out, the acked entry installed and transferring.
	if lr.Healthy == 0 || lr.HeldOut == 0 {
		t.Fatalf("no validation evidence accrued:\n%s", want.Render())
	}
	if len(lr.Installed) == 0 || lr.Transfers == 0 {
		t.Fatalf("review gate never admitted the acked entry:\n%s", want.Render())
	}
	for _, ie := range lr.Installed {
		// The regression the healthy corpus exists to prevent: facts
		// present during normal operation (the pseudo-labeled probe
		// always carries first-unsat-run) must not survive as
		// "discriminative" conditions.
		if rendered := ie.Entry.Render(); strings.Contains(rendered, "first-unsat-run") {
			t.Errorf("installed entry %s encodes an always-present fact:\n%s", ie.Kind, rendered)
		}
	}
	for _, c := range []struct {
		name string
		mod  func(*FleetSpec)
	}{
		{"chunk-1min", func(s *FleetSpec) { s.Chunk = simtime.Minute }},
		{"chunk-5min", func(s *FleetSpec) { s.Chunk = 5 * simtime.Minute }},
		{"chunk-10min-serial", func(s *FleetSpec) {
			s.Chunk = 10 * simtime.Minute
			s.MaxStreams, s.Workers = 1, 1
		}},
	} {
		spec := base
		c.mod(&spec)
		rep, _, err := RunFleetSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.Render() != want.Render() {
			t.Errorf("%s: validated+reviewed fleet report diverged\n--- batch ---\n%s\n--- %s ---\n%s",
				c.name, want.Render(), c.name, rep.Render())
		}
	}
}

// TestFleetLearningFeedInvariant pins what the learner is fed: every
// diagnosis deposits the incident it filed, if confirmed, tagged with
// its wave's end, and the fold keeps each incident's first snapshot.
// The learning report — every field, each candidate's validation
// included — must then be the same at every shard count and chunk size,
// with the operator gate on and a scripted ack, on several seeds.
func TestFleetLearningFeedInvariant(t *testing.T) {
	mined := symptoms.CauseSANMisconfig + symptoms.MinedSuffix
	for _, seed := range []int64{1, 7, 42} {
		var want *fleet.LearnStats
		for _, shards := range []int{1, 2, 4} {
			for _, chunk := range []simtime.Duration{simtime.Minute, 10 * simtime.Minute, 30 * simtime.Minute} {
				rep, _, err := RunFleetSpec(FleetSpec{
					Seed: seed, Instances: 4, Degraded: 3, Runs: 12, Shards: shards, Chunk: chunk,
					OperatorReview: true, AckKinds: []string{mined},
				})
				if err != nil {
					t.Fatalf("seed %d shards %d chunk %v: %v", seed, shards, chunk, err)
				}
				got := rep.Learning
				if want == nil {
					if got.Confirmed+got.HeldOut == 0 {
						t.Fatalf("seed %d: no incident reached the learner:\n%s", seed, rep.Render())
					}
					want = &got
					continue
				}
				if !reflect.DeepEqual(got, *want) {
					t.Errorf("seed %d shards %d chunk %v: learning diverged\n got %+v\nwant %+v",
						seed, shards, chunk, got, *want)
				}
			}
		}
	}
}

// TestShortChunkReleaseRespectsReadWindows reproduces the original
// watermark/read-window race and pins its fix. With 3-minute chunks —
// shorter than the monitor-interval padding — the old gate (which
// compared a window ending at rec.Stop + 1min against the watermark)
// released events whose 5-minute-padded metric read windows the emission
// watermark had not covered yet. The new gate must never release an
// event before the watermark reaches its ReadWindow's end, and the
// scenario must actually exhibit at least one event the old contract
// would have released early, or the regression test is vacuous.
func TestShortChunkReleaseRespectsReadWindows(t *testing.T) {
	env, err := BuildOnline(OnlineSpec{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 3 * simtime.Minute
	type release struct {
		ev monitor.SlowdownEvent
		at simtime.Time // the watermark that released it
	}
	var releases []release
	err = env.Testbed.SimulateStream(chunk, func(now simtime.Time) error {
		for _, ev := range env.Monitor.Release(now) {
			releases = append(releases, release{ev: ev, at: now})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(releases) == 0 {
		t.Fatal("scenario emitted no slowdown events")
	}
	if n := env.Monitor.Pending(); n != 0 {
		t.Errorf("%d events never released; the final chunk's watermark should cover everything", n)
	}
	raced := false
	for _, r := range releases {
		if r.ev.ReadWindow.End > r.at {
			t.Errorf("event %s released at watermark %v before its read window %v closed",
				r.ev.RunID, r.at, r.ev.ReadWindow)
		}
		// Where the old contract would have released this event: the first
		// chunk boundary at or past Window.End + 1min.
		oldEnd := float64(r.ev.Window.End.Add(simtime.Minute))
		oldRelease := simtime.Time(math.Ceil(oldEnd/float64(chunk)) * float64(chunk))
		if oldRelease < r.ev.ReadWindow.End {
			raced = true
		}
	}
	if !raced {
		t.Error("no event would have raced under the old contract; the regression scenario lost its teeth")
	}
}
