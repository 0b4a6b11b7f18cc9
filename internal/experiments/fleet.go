package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"diads/internal/faults"
	"diads/internal/fleet"
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
)

// fleetStagger offsets consecutive instances' schedules: independent
// production databases never run their batch windows in phase, and the
// stagger is what lets early instances confirm incidents (and author
// mined symptoms) before later instances diagnose theirs.
const fleetStagger = 3 * simtime.Minute

// fleetSeedStride separates the instances' randomness streams.
const fleetSeedStride = 1_000_003

// fleetSharedSubjects lists the components of the shared pool P1 that
// the degraded instances sit on: incidents on these subjects correlate
// across instances.
func fleetSharedSubjects() []string {
	out := []string{
		string(testbed.PoolP1), string(testbed.VolV1), string(testbed.VolV3), "vol-Vp",
	}
	for i := 1; i <= 4; i++ {
		out = append(out, fmt.Sprintf("disk-%d", i))
	}
	return out
}

// FleetResult is the outcome of the fleet scenario: N instances streamed
// concurrently through one shared diagnosis service while a misconfigured
// shared SAN pool degrades the first Degraded of them, with the
// cross-instance symptom-learning loop measured against a learning-off
// baseline run of the same seed.
type FleetResult struct {
	Seed      int64
	Instances int
	Degraded  int
	// Onsets are the per-instance fault onsets (staggered schedules).
	Onsets []simtime.Time
	// Report is the learning-enabled run; Baseline the learning-off
	// twin (nil when the comparison is skipped).
	Report   *fleet.Report
	Baseline *fleet.Report
	// Lags are the detection lags of the degraded instances that
	// detected (first event minus their own onset), in instance order.
	Lags []simtime.Duration
	// Correct reports whether the top-ranked fleet incident is the
	// shared-pool group, names a cause in the injected fault's answer,
	// and spans every degraded instance and only those.
	Correct bool
}

// Fleet runs the canonical fleet scenario: 8 instances, 6 attached to
// the misconfigured shared pool, with the learning loop on, plus a
// learning-off baseline of the same seed for the before/after.
func Fleet(seed int64) (*FleetResult, error) {
	return FleetN(seed, 8, 6, true)
}

// FleetN runs the fleet scenario with explicit sizing. baseline controls
// whether the learning-off twin runs too.
func FleetN(seed int64, instances, degraded int, baseline bool) (*FleetResult, error) {
	if instances < 1 || degraded < 1 || degraded > instances {
		return nil, fmt.Errorf("experiments: fleet needs 1 <= degraded <= instances, got %d/%d",
			degraded, instances)
	}
	res := &FleetResult{Seed: seed, Instances: instances, Degraded: degraded}
	spec := FleetSpec{Seed: seed, Instances: instances, Degraded: degraded}
	rep, onsets, err := RunFleetSpec(spec)
	if err != nil {
		return nil, err
	}
	res.Report, res.Onsets = rep, onsets
	if baseline {
		spec.LearnOff = true
		res.Baseline, _, err = RunFleetSpec(spec)
		if err != nil {
			return nil, err
		}
	}
	for i, ir := range rep.Instances {
		if i < degraded && ir.Detected {
			res.Lags = append(res.Lags, ir.FirstDetection.Sub(onsets[i]))
		}
	}
	if g := rep.SharedGroup(); g != nil && g == &rep.Groups[0] {
		// Instance 0's build: every degraded instance has its fault.
		env, err := BuildOnline(OnlineSpec{Seed: seed})
		if err != nil {
			return nil, err
		}
		res.Correct = Named(g.Kind, g.Subject, env.Fault.Answer(env.Testbed)) && len(g.Parts) == degraded
	}
	return res, nil
}

// FleetSpec parameterizes a single fleet run. Tests and benchmarks use
// it to sweep concurrency settings (which must never change results)
// and instance counts.
type FleetSpec struct {
	Seed      int64
	Instances int
	Degraded  int
	// Fault builds the degraded instances' fault, as OnlineSpec.Fault
	// does (nil: the SAN misconfiguration).
	Fault func(onset, horizon simtime.Time) faults.Fault
	// Runs is the per-instance Q2 schedule length (default 16).
	Runs int
	// Chunk is the simulation chunk and barrier granularity (0 = the
	// fleet default of 10 minutes).
	Chunk simtime.Duration
	// MaxStreams caps concurrently-stepping instances (0 = all);
	// Workers sizes each shard service's pool (0 = service default).
	MaxStreams int
	Workers    int
	// Shards partitions the instances into service shards (0 = 1).
	// Like MaxStreams and Workers,
	// sharding must never change results — only wall time.
	Shards int
	// LearnOff disables the symptom-learning loop.
	LearnOff bool
	// SymDB overrides the fleet-shared symptoms database (nil =
	// symptoms.Builtin()). cmd/diadsd passes a database extended with
	// entries learned — and persisted to the admin DSL — in earlier runs.
	SymDB *symptoms.DB
	// OperatorReview switches the learning loop's adoption gate from
	// auto-accept-on-validation to an operator ack, scripted here:
	// validated candidates whose kind appears in AckKinds are accepted,
	// every other validated candidate is rejected as "operator
	// rejected". With an empty AckKinds list, validated candidates stay
	// pending (rendered in the report for a human to adopt by hand).
	OperatorReview bool
	AckKinds       []string
	// SelfObserver, when non-nil, is threaded to the fleet's shared
	// service so the dogfood loop can watch the run's own diagnosis
	// latency.
	SelfObserver service.SelfObserver
	// Retention turns on barrier-time evidence truncation and the
	// hibernate/rehydrate instance lifecycle; ResidentCap bounds each
	// shard's resident instances (0 = unlimited). Like the concurrency
	// knobs, neither may change results — the retention-parity sweep
	// pins reports byte-identical against a retention-off twin.
	Retention   bool
	ResidentCap int
	// Monitor tunes each instance's detector (zero value = defaults);
	// StoreSegment overrides each instance store's segment granularity
	// (0 = default). The retention sweep uses both to make truncation
	// fire within test-scale timelines.
	Monitor      monitor.Config
	StoreSegment int
	// OnBarrier observes every barrier of every shard
	// (fleet.Config.OnBarrier).
	OnBarrier func(fleet.Barrier) error
}

// RunFleetSpec builds the instances from the shared online-scenario
// builder and streams them through a fleet, returning the report and the
// per-instance fault onsets.
func RunFleetSpec(spec FleetSpec) (*fleet.Report, []simtime.Time, error) {
	insts := make([]fleet.Instance, 0, spec.Instances)
	onsets := make([]simtime.Time, 0, spec.Instances)
	for i := 0; i < spec.Instances; i++ {
		env, err := BuildOnline(OnlineSpec{
			Seed:         spec.Seed + int64(i)*fleetSeedStride,
			Runs:         spec.Runs,
			Offset:       simtime.Duration(i) * fleetStagger,
			Fault:        spec.Fault,
			NoFault:      i >= spec.Degraded,
			Monitor:      spec.Monitor,
			StoreSegment: spec.StoreSegment,
		})
		if err != nil {
			return nil, nil, err
		}
		insts = append(insts, fleet.Instance{
			ID:      fmt.Sprintf("inst-%d", i),
			Testbed: env.Testbed,
			Monitor: env.Monitor,
			Shared:  i < spec.Degraded,
		})
		onsets = append(onsets, env.Onset)
	}
	learn := fleet.LearnConfig{Disabled: spec.LearnOff}
	if spec.OperatorReview {
		learn.Review = fleet.ReviewOperator
		if len(spec.AckKinds) > 0 {
			learn.Reviewer = func(c symptoms.CandidateEntry, _ symptoms.Validation) bool {
				return slices.Contains(spec.AckKinds, c.CauseKind)
			}
		}
	}
	fl, err := fleet.New(fleet.Config{
		SymDB:          spec.SymDB,
		SharedSubjects: fleetSharedSubjects(),
		Chunk:          spec.Chunk,
		MaxStreams:     spec.MaxStreams,
		Shards:         spec.Shards,
		Service:        service.Config{Workers: spec.Workers},
		Learn:          learn,
		SelfObserver:   spec.SelfObserver,
		Retention:      spec.Retention,
		ResidentCap:    spec.ResidentCap,
		OnBarrier:      spec.OnBarrier,
	}, insts)
	if err != nil {
		return nil, nil, err
	}
	rep, err := fl.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	return rep, onsets, nil
}

// Render formats the study like the paper's tables, followed by the
// fleet report itself. The output is byte-deterministic per seed.
func (r *FleetResult) Render() string {
	var b strings.Builder
	b.WriteString("Fleet: multi-instance diagnosis & cross-instance symptom learning\n")
	b.WriteString(strings.Repeat("-", 70) + "\n")
	fmt.Fprintf(&b, "instances            %d (%d on the misconfigured shared pool)\n",
		r.Instances, r.Degraded)
	if len(r.Onsets) > 0 {
		fmt.Fprintf(&b, "fault onsets         %s .. %s (staggered)\n",
			r.Onsets[0].Clock(), r.Onsets[r.Degraded-1].Clock())
	}
	if len(r.Lags) > 0 {
		var sum, max simtime.Duration
		for _, l := range r.Lags {
			sum += l
			if l > max {
				max = l
			}
		}
		fmt.Fprintf(&b, "detection            %d/%d degraded instances, lag mean %s max %s\n",
			len(r.Lags), r.Degraded, sum/simtime.Duration(len(r.Lags)), max)
	} else {
		b.WriteString("detection            none\n")
	}
	fmt.Fprintf(&b, "dedup                %d of %d submissions suppressed\n",
		r.Report.Stats.Deduped, r.Report.Stats.Submitted)
	fmt.Fprintf(&b, "correlated incident  correct %v\n", r.Correct)
	after := r.Report.Learning
	if r.Baseline != nil {
		fmt.Fprintf(&b, "symptom transfer     before: %d applications — after: %d on %d instances\n",
			r.Baseline.Learning.Transfers, after.Transfers, len(after.TransferInstances))
	} else {
		fmt.Fprintf(&b, "symptom transfer     %d applications on %d instances\n",
			after.Transfers, len(after.TransferInstances))
	}
	b.WriteString("\n")
	b.WriteString(r.Report.Render())
	return b.String()
}
