package experiments

import (
	"fmt"

	"diads/internal/faults"
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/workload"
)

// OnlineSpec parameterizes the shared online-scenario assembly: the
// Figure 1 testbed under the three-query workload (Q2 on the V1 volume;
// Q6 and Q14 on V2) with a fault, by default the SAN misconfiguration,
// injected mid-timeline and a monitor wired to the engine's completion
// hook. experiments.Online, cmd/diadsd, and the fleet builder all
// construct their instances from it, so the wiring cannot drift between
// them again.
type OnlineSpec struct {
	// Seed drives all of the instance's randomness.
	Seed int64
	// Runs is the number of Q2 occurrences (minimum 2; default 16). Q6
	// and Q14 scale along at 3/2 and 6/5 of it.
	Runs int
	// Offset shifts every schedule start. The fleet staggers its
	// instances' workloads with it, the way independent production
	// databases never run their batch windows in phase.
	Offset simtime.Duration
	// Fault builds the injected fault from its onset and the end of the
	// schedule (nil: the SAN misconfiguration).
	Fault func(onset, horizon simtime.Time) faults.Fault
	// NoFault skips the fault: the instance runs healthy. The fleet uses
	// it for instances not attached to the degraded shared pool.
	NoFault bool
	// Monitor tunes online detection (zero value = defaults).
	Monitor monitor.Config
	// StoreSegment overrides the metric store's segment granularity
	// (0 = the store default). Retention sweeps shrink it so truncation
	// fires within test-scale timelines; segmentation never affects
	// values.
	StoreSegment int
	// Workers sizes the diagnosis pool and SelfObserver receives every
	// diagnosis's wall time (see FleetSpec); only RunOnline reads them.
	Workers      int
	SelfObserver service.SelfObserver
}

// OnlineEnv is one assembled online-scenario instance: the testbed with
// schedules, loads, and (unless NoFault) the fault injected, and a
// monitor already attached to the engine's OnRunComplete hook.
type OnlineEnv struct {
	Testbed *testbed.Testbed
	Monitor *monitor.Monitor
	// Fault is the injected fault (nil under NoFault), Onset when it
	// strikes, Horizon the end of the schedule.
	Fault   faults.Fault
	Onset   simtime.Time
	Horizon simtime.Time
}

// BuildOnline assembles one online-scenario instance from the spec.
func BuildOnline(spec OnlineSpec) (*OnlineEnv, error) {
	runs := spec.Runs
	if runs == 0 {
		runs = scenarioRuns
	}
	if runs < 2 {
		return nil, fmt.Errorf("experiments: online scenario needs at least 2 runs, got %d", runs)
	}
	tb, onset, horizon, err := gridTestbed(spec.Seed, runs, spec.Offset)
	if err != nil {
		return nil, err
	}
	if spec.StoreSegment > 0 {
		tb.Store.SetSegmentSize(spec.StoreSegment)
	}
	start := tb.Schedules[0].Start
	tb.Schedules = append(tb.Schedules,
		workload.QuerySchedule{Query: "Q6", Start: start.Add(2 * simtime.Minute), Period: 20 * simtime.Minute, Count: 3 * runs / 2},
		workload.QuerySchedule{Query: "Q14", Start: start.Add(4 * simtime.Minute), Period: 25 * simtime.Minute, Count: 6 * runs / 5},
	)
	env := &OnlineEnv{Testbed: tb, Onset: onset, Horizon: horizon}
	if !spec.NoFault {
		if spec.Fault == nil {
			spec.Fault = Families[0].Fault // san-misconfig
		}
		env.Fault = spec.Fault(onset, horizon)
		if err := faults.Inject(tb, env.Fault); err != nil {
			return nil, err
		}
	}
	env.Monitor = monitor.New(spec.Monitor)
	tb.Engine.OnRunComplete = env.Monitor.Observe
	return env, nil
}
