// Fleet tests live in an external test package so they can assemble
// realistic instances through the shared online-scenario builder in
// internal/experiments (which itself imports fleet).
package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diads/internal/experiments"
	"diads/internal/fleet"
	"diads/internal/metrics"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/telemetry"
	"diads/internal/workload"
)

const testSeed = 400

// TestFleetDeterministicAcrossConcurrency pins the tentpole's
// determinism contract: the grouped fleet report is byte-identical for a
// seed across repeated runs, across MaxStreams settings (how many
// instances simulate concurrently), and across service worker counts.
// Run under -race this also proves the barrier coordination is sound.
func TestFleetDeterministicAcrossConcurrency(t *testing.T) {
	base := experiments.FleetSpec{
		Seed: testSeed, Instances: 8, Degraded: 6, Runs: 12,
	}
	configs := []struct {
		name string
		spec experiments.FleetSpec
	}{
		{"concurrent", base},
		{"concurrent-again", base},
		{"sequential-streams-single-worker", func() experiments.FleetSpec {
			s := base
			s.MaxStreams, s.Workers = 1, 1
			return s
		}()},
	}
	var want string
	for _, c := range configs {
		rep, _, err := experiments.RunFleetSpec(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.Stats.Rejected != 0 || rep.Stats.Failed != 0 {
			t.Fatalf("%s: rejected=%d failed=%d, want 0/0",
				c.name, rep.Stats.Rejected, rep.Stats.Failed)
		}
		got := rep.Render()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s: report diverged from the first run\n--- want ---\n%s\n--- got ---\n%s",
				c.name, want, got)
		}
	}
}

// TestFleetDeterministicAcrossShards pins the sharded tentpole's
// contract: the merged fleet report is byte-identical for a seed across
// shard counts 1/2/4/8 and across repeated runs of the same sharded
// configuration. Under -race this also proves the shard coordinators,
// the fleet-wide stream semaphore, and the epoch-seal learning exchange
// share no unsynchronized state.
func TestFleetDeterministicAcrossShards(t *testing.T) {
	base := experiments.FleetSpec{
		Seed: testSeed, Instances: 8, Degraded: 6, Runs: 12,
	}
	var want string
	for _, cfg := range []struct {
		name   string
		shards int
	}{
		{"shards=1", 1},
		{"shards=2", 2},
		{"shards=4", 4},
		{"shards=4-again", 4},
		{"shards=8", 8},
		{"shards=8-again", 8},
	} {
		s := base
		s.Shards = cfg.shards
		rep, _, err := experiments.RunFleetSpec(s)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if rep.Stats.Rejected != 0 || rep.Stats.Failed != 0 {
			t.Fatalf("%s: rejected=%d failed=%d, want 0/0",
				cfg.name, rep.Stats.Rejected, rep.Stats.Failed)
		}
		if rep.Learning.Transfers == 0 || len(rep.Learning.Installed) == 0 {
			t.Fatalf("%s: learning went dead (installed=%d transfers=%d)",
				cfg.name, len(rep.Learning.Installed), rep.Learning.Transfers)
		}
		got := rep.Render()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s: report diverged from the shards=1 run\n--- want ---\n%s\n--- got ---\n%s",
				cfg.name, want, got)
		}
	}
}

// TestFleetLearningOff pins that a fleet with learning off learns
// nothing and folds nothing: its report's learning section is empty, no
// instance counts a transfer, and diads_fleet_epoch_seals_total does
// not move. The learning-on twin moves the counter by exactly one per
// epoch that held released events and learns, so the contrast is not
// vacuous.
func TestFleetLearningOff(t *testing.T) {
	seals := telemetry.Default().Counter("diads_fleet_epoch_seals_total",
		"Learning epochs folded into the learner.", nil)
	for _, off := range []bool{false, true} {
		epochs := map[int64]bool{}
		before := seals.Value()
		rep, _, err := experiments.RunFleetSpec(experiments.FleetSpec{
			Seed: testSeed, Instances: 4, Degraded: 3, Runs: 12, Shards: 2, LearnOff: off,
			OnBarrier: func(b fleet.Barrier) error {
				for _, ev := range b.Released {
					epochs[fleet.EpochOf(ev.ReadWindow.End)] = true
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("learning off=%v: %v", off, err)
		}
		folded := seals.Value() - before
		if len(epochs) == 0 {
			t.Fatalf("learning off=%v: no event was released", off)
		}
		if !off {
			if rep.Learning.Confirmed == 0 || rep.Learning.Transfers == 0 {
				t.Fatalf("learning on: nothing learned (confirmed=%d transfers=%d)",
					rep.Learning.Confirmed, rep.Learning.Transfers)
			}
			if folded != int64(len(epochs)) {
				t.Errorf("learning on: %d epoch seals, want one per epoch with events (%d)", folded, len(epochs))
			}
			continue
		}
		if !reflect.DeepEqual(rep.Learning, fleet.LearnStats{}) {
			t.Errorf("learning off: report learned %+v", rep.Learning)
		}
		for _, ir := range rep.Instances {
			if ir.Transfers != 0 {
				t.Errorf("learning off: %s counts %d transfers", ir.ID, ir.Transfers)
			}
		}
		if folded != 0 {
			t.Errorf("learning off: %d epoch seals, want 0", folded)
		}
	}
}

// TestFleetReportSameAtAnyQueue pins that the diagnosis pool's size
// moves wall time only: a fleet whose degraded instances share a seed,
// so each wave holds one detection per degraded instance, reports the
// same at a one-slot queue with one worker — where a wave's Submits wait
// for space — as at the default pool, and rejects nothing.
func TestFleetReportSameAtAnyQueue(t *testing.T) {
	const n, degraded = 6, 4
	run := func(pool service.Config) *fleet.Report {
		insts := make([]fleet.Instance, 0, n)
		for i := 0; i < n; i++ {
			env, err := experiments.BuildOnline(experiments.OnlineSpec{Seed: testSeed, Runs: 12, NoFault: i >= degraded})
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, fleet.Instance{
				ID: "inst-" + strconv.Itoa(i), Testbed: env.Testbed, Monitor: env.Monitor, Shared: i < degraded,
			})
		}
		fl, err := fleet.New(fleet.Config{Service: pool}, insts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fl.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Completed == 0 || rep.Stats.Rejected != 0 || rep.Stats.Failed != 0 {
			t.Fatalf("pool %+v: %s, want diagnoses completed, none rejected or failed", pool, rep.Stats)
		}
		return rep
	}
	want := run(service.Config{}).Render()
	if got := run(service.Config{Queue: 1, Workers: 1}).Render(); got != want {
		t.Errorf("report at queue 1, one worker diverged from the default pool's\n--- default ---\n%s\n--- queue=1 ---\n%s", want, got)
	}
}

// TestFleetGroupsSharedPoolAcrossSeeds sweeps seeds on the shared-pool
// scenario: the misconfiguration must always fold into one correlated
// cross-instance incident ranked first, spanning exactly the attached
// instances, with the healthy instances untouched.
func TestFleetGroupsSharedPoolAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rep, _, err := experiments.RunFleetSpec(experiments.FleetSpec{
			Seed: seed, Instances: 4, Degraded: 3, Runs: 12,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := rep.SharedGroup()
		if g == nil {
			t.Fatalf("seed %d: no cross-instance group\n%s", seed, rep.Render())
		}
		if len(rep.Groups) == 0 || !rep.Groups[0].Shared {
			t.Errorf("seed %d: shared incident not ranked first", seed)
		}
		env, err := experiments.BuildOnline(experiments.OnlineSpec{Seed: seed, Runs: 12})
		if err != nil {
			t.Fatal(err)
		}
		if answer := env.Fault.Answer(env.Testbed); !experiments.Named(g.Kind, g.Subject, answer) {
			t.Errorf("seed %d: group = %s(%s), want one of %v", seed, g.Kind, g.Subject, answer)
		}
		if len(g.Parts) != 3 {
			t.Errorf("seed %d: group spans %d instances, want the 3 degraded ones",
				seed, len(g.Parts))
		}
		for _, p := range g.Parts {
			if p.Instance == "inst-3" {
				t.Errorf("seed %d: healthy instance %s in the shared group", seed, p.Instance)
			}
		}
		for _, ir := range rep.Instances[3:] {
			if ir.Events != 0 || ir.Incidents != 0 {
				t.Errorf("seed %d: healthy %s has events=%d incidents=%d",
					seed, ir.ID, ir.Events, ir.Incidents)
			}
		}
	}
}

// TestFinishedFleetLeavesTheRegistry pins what the default telemetry
// registry — which outlives every fleet — keeps of one that has run: the
// final values of its scrape-time series, and nothing of the fleet. The
// callbacks used to capture the fleet, its services' queues, and through
// them every instance's store, until the next fleet replaced them.
func TestFinishedFleetLeavesTheRegistry(t *testing.T) {
	const n = 3
	var collected atomic.Int32
	run := func() *fleet.Report {
		insts := make([]fleet.Instance, 0, n)
		for i := 0; i < n; i++ {
			env, err := experiments.BuildOnline(experiments.OnlineSpec{Seed: testSeed + int64(i), Runs: 12, NoFault: i == n-1})
			if err != nil {
				t.Fatal(err)
			}
			// The store is the bulk of an instance and, unlike the
			// testbed, part of no reference cycle a finalizer would pin.
			runtime.SetFinalizer(env.Testbed.Store, func(*metrics.Store) { collected.Add(1) })
			insts = append(insts, fleet.Instance{
				ID: "inst-" + strconv.Itoa(i), Testbed: env.Testbed, Monitor: env.Monitor, Shared: i < n-1,
			})
		}
		fl, err := fleet.New(fleet.Config{Shards: 2}, insts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fl.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.Stats.Completed == 0 || rep.Learning.Confirmed == 0 {
		t.Fatalf("the fleet diagnosed nothing: %s", rep.Stats)
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < n && time.Now().Before(deadline); {
		runtime.GC() // finalizers run on their own goroutine, after the cycle that found them
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != n {
		t.Errorf("%d of %d instance stores were collected after the fleet finished", got, n)
	}

	expo := telemetry.Default().Exposition()
	if err := telemetry.ValidateExposition(expo); err != nil {
		t.Fatal(err)
	}
	for line, want := range map[string]int{
		"diads_fleet_incidents_confirmed_total": rep.Learning.Confirmed,
		"diads_fleet_healthy_corpus_size":       rep.Learning.Healthy,
		"diads_fleet_resident_instances":        n,
	} {
		if !bytes.Contains(expo, []byte(fmt.Sprintf("\n%s %d\n", line, want))) {
			t.Errorf("the scrape after the run does not report %s %d", line, want)
		}
	}
	// Both shards' queue-depth series survive the run under their own
	// labels, frozen at the empty queues the finished run left.
	for _, shard := range []string{"0", "1"} {
		_, rest, found := bytes.Cut(expo, []byte(`diads_service_queue_depth{shard="`+shard+`"} `))
		line, _, _ := bytes.Cut(rest, []byte("\n"))
		v, err := strconv.ParseFloat(string(line), 64)
		if !found || err != nil {
			t.Fatalf("shard %s queue depth = %q: %v", shard, line, err)
		}
		if v != 0 {
			t.Errorf("the scrape after the run reports shard %s queue depth %g, want 0", shard, v)
		}
	}
}

// TestFleetRunUnwinds pins how a failing run ends, on one shard and on
// two, with learning on: Run returns the failure itself — an instance's
// failed step, the caller's canceled context, the hook's error — and
// every goroutine the run started (steppers, epoch workers, service
// pools) has exited by the time it returns.
func TestFleetRunUnwinds(t *testing.T) {
	errHook := errors.New("hook refused the barrier")
	newFleet := func(t *testing.T, shards int, hook func(fleet.Barrier) error, self service.SelfObserver, bad bool) *fleet.Fleet {
		t.Helper()
		insts := make([]fleet.Instance, 0, 3)
		for i := 0; i < 3; i++ {
			env, err := experiments.BuildOnline(experiments.OnlineSpec{Seed: testSeed + int64(i), Runs: 12, NoFault: i == 2})
			if err != nil {
				t.Fatal(err)
			}
			if bad && i == 1 {
				// A query the optimizer does not know, due in the first chunk.
				env.Testbed.Schedules = append(env.Testbed.Schedules,
					workload.QuerySchedule{Query: "Q99", Start: simtime.Time(simtime.Minute), Period: simtime.Hour, Count: 1})
			}
			insts = append(insts, fleet.Instance{
				ID: "inst-" + strconv.Itoa(i), Testbed: env.Testbed, Monitor: env.Monitor, Shared: i < 2,
			})
		}
		fl, err := fleet.New(fleet.Config{Shards: shards, Retention: true, OnBarrier: hook, SelfObserver: self}, insts)
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	// atBarrier returns a hook that calls fn at the fleet's fifth barrier
	// (each shard sees every barrier) and passes otherwise.
	atBarrier := func(shards int, fn func() error) func(fleet.Barrier) error {
		calls := 0
		return func(fleet.Barrier) error {
			calls++
			if calls == 5*shards {
				return fn()
			}
			return nil
		}
	}
	for _, shards := range []int{1, 2} {
		t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
			base := runtime.NumGoroutine()

			barriers := 0
			count := func(fleet.Barrier) error { barriers++; return nil }
			_, err := newFleet(t, shards, count, nil, true).Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), `"Q99"`) {
				t.Errorf("an instance stepping an unknown query: Run returned %v, want the planning error", err)
			}
			if barriers != 0 {
				t.Errorf("the failed first step still reached %d barrier hooks", barriers)
			}

			ctx, cancel := context.WithCancel(context.Background())
			_, err = newFleet(t, shards, atBarrier(shards, func() error { cancel(); return nil }), nil, false).Run(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("canceled at a barrier: Run returned %v, want context.Canceled", err)
			}
			// The first completed diagnosis cancels, in the middle of a
			// wave: the halted service refuses the next wave's events.
			ctx, cancel = context.WithCancel(context.Background())
			_, err = newFleet(t, shards, nil, cancelOnDiagnosis(cancel), false).Run(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("canceled mid-wave: Run returned %v, want context.Canceled", err)
			}

			_, err = newFleet(t, shards, atBarrier(shards, func() error { return errHook }), nil, false).Run(context.Background())
			if !errors.Is(err, errHook) {
				t.Errorf("hook failure: Run returned %v, want the hook's error", err)
			}

			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Errorf("%d goroutines after the failed runs, %d before", n, base)
			}
		})
	}
}

// cancelOnDiagnosis cancels a run from a service worker, at the end of
// every diagnosis.
type cancelOnDiagnosis context.CancelFunc

func (c cancelOnDiagnosis) ObserveDiagnosis(string, time.Duration) { c() }
