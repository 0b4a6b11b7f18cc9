// Package fleet runs many database+SAN instances through one shared
// diagnosis pipeline — what the paper's symptoms-database design
// (Section 7) anticipates: diagnosis knowledge amortized across
// deployments. It is also the one loop that drives a simulated
// instance: the single-instance online driver is a one-instance fleet.
//
// A Fleet streams N independent testbed instances, each on its own seed
// and timeline, partitioned into shards by instance hash; each shard
// has its own service.Service (worker pool, dedup set, impact
// registry). Run is one loop over fleet-wide chunk barriers. At each
// barrier it steps every live instance one chunk
// (testbed.Stream; at most MaxStreams at once), releases from each
// instance runtime (instance.go) the slowdown events whose read windows
// the metric watermark covers, and then takes, in order, every learning
// epoch the fleet's frontier (the slowest live instance) has completed:
// every shard diagnoses the epoch's events in evidence-time waves —
// sorted by read-window end, with the worker pool settled between waves
// — in parallel with the other shards, and then the epoch's
// healthy-corpus and confirmed-incident deposits fold into the central
// learner (see exchange.go). The end-of-run merge concatenates the
// per-shard registries into one fleet-wide ranking.
//
// Because diagnosis state is instance-scoped throughout, because every
// cross-instance learning effect happens at an epoch fold ordered by
// evidence time alone, and because the wave order depends only on the
// event stream, a fleet run is byte-identical per seed regardless of
// MaxStreams, service worker count, simulation chunk size, or shard
// count — and diagnosis never races metric emission: no instance steps
// while events are diagnosed.
//
// The fold back up is the fleet incident view: registry incidents whose
// subject is shared SAN infrastructure group across the instances
// attached to it, so a misconfigured shared pool degrading six of eight
// instances surfaces as one correlated fleet incident with a
// per-instance breakdown, not six unrelated ones.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
	"diads/internal/testbed"
)

// Config tunes the fleet.
type Config struct {
	// SymDB is the fleet-shared symptoms database every instance
	// diagnoses against and the learning loop installs mined entries
	// into (default symptoms.Builtin()).
	SymDB *symptoms.DB
	// Chunk is the simulation chunk, the monitoring lag and the barrier
	// granularity (default 10 minutes).
	Chunk simtime.Duration
	// MaxStreams caps the goroutines that step instances between two
	// barriers (0 = one per instance). Every instance plays exactly one
	// chunk per barrier whatever the cap, so it changes wall time only,
	// never results.
	MaxStreams int
	// Shards partitions the instances (by ID hash) into service slices,
	// each with its own worker pool, dedup set and registry, which
	// diagnose a learning epoch in parallel (default 1; clamped to
	// the instance count). Sharding changes wall time and telemetry
	// labels only: reports are byte-identical across shard counts.
	Shards int
	// Service tunes each shard's diagnosis service. It keeps the
	// service's own defaults: a full queue makes a wave's Submit wait
	// rather than drop a detection, so the report is the same at any
	// queue size.
	Service service.Config
	// Learn tunes the cross-instance symptom-learning loop.
	Learn LearnConfig
	// SharedSubjects lists the component IDs of the shared SAN
	// infrastructure (the pool, its volumes, its disks). Incidents on
	// these subjects from Shared instances group across the fleet.
	SharedSubjects []string
	// SelfObserver, when non-nil, receives every completed diagnosis's
	// wall time from the shared service — the hook the dogfood loop
	// (telemetry/selfmon) plugs into so the fleet's diagnoser watches its
	// own latency.
	SelfObserver service.SelfObserver
	// Retention bounds per-instance memory. At each chunk barrier —
	// after the barrier's diagnoses have settled and before the next
	// step — the loop truncates every instance's metric store,
	// SAN timelines, and run history to the instance's evidence low
	// watermark: the oldest time any future diagnosis can still read
	// (monitor history, gated events, buffered epoch events, each padded
	// through the one evidence-window contract). Reports are
	// byte-identical with retention on or off; only memory changes.
	Retention bool
	// OnBarrier, when non-nil, observes every chunk barrier once per
	// shard, in shard order; an error fails the run. Now and Final are
	// the fleet's: each shard sees every barrier, and exactly one Final,
	// the last.
	OnBarrier func(Barrier) error
	// ResidentCap bounds each shard's resident (non-hibernated)
	// instances when Retention is on (0 = unlimited). Past the cap,
	// instances with no gated or buffered events hibernate: their
	// service environment pages out, and they rehydrate automatically —
	// before any Submit — when a later barrier releases an event of
	// theirs. A diagnosis reads only its instance's state, so the
	// page-out/page-in cycle never changes a result.
	ResidentCap int
}

// Barrier is what Config.OnBarrier sees of one shard at a chunk
// barrier: the barrier time (the highest metric watermark any instance
// has reached; at the Final barrier every instance has finished), the
// detections the shard's instances released at it, and the shard's
// service. The hook runs on Run's goroutine after the barrier's epochs
// are diagnosed and folded and before retention, while no instance
// steps: it may read their stores and the settled service, but must
// not submit.
type Barrier struct {
	Now      simtime.Time
	Final    bool
	Released []monitor.SlowdownEvent
	Service  *service.Service
}

func (c Config) withDefaults(n int) Config {
	if c.SymDB == nil {
		c.SymDB = symptoms.Builtin()
	}
	if c.Chunk <= 0 {
		c.Chunk = 10 * simtime.Minute
	}
	if c.MaxStreams <= 0 || c.MaxStreams > n {
		c.MaxStreams = n
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shards > n {
		c.Shards = n
	}
	return c
}

// instanceState is the fleet's per-instance bookkeeping around the
// instance runtime, which the loop drives only between steps; transfers
// is written by service workers, hence atomic.
type instanceState struct {
	Instance
	stream *testbed.Stream
	// watermark is the instance's metric watermark at the last barrier,
	// monitor.EndOfStream once it has finished. An instance whose stream
	// played its last chunk (ended) reports that chunk's watermark at one
	// barrier and finishes at the next, which releases its tail.
	watermark simtime.Time
	ended     bool
	transfers atomic.Int64
}

// Fleet drives the instances. Construct with New, then Run once.
type Fleet struct {
	cfg       Config
	instances []*instanceState
	byID      map[string]*instanceState
	shared    map[string]bool
	shards    []*shard
	ex        *exchange

	// freeze detaches the scrape callbacks from the fleet (see
	// telemetry.Registry.CounterFunc); Run calls them on its way out.
	freeze []func()

	ran bool
}

// New assembles a fleet over the instances. Instance testbeds must be
// freshly built (not yet simulated) and monitors already attached.
func New(cfg Config, instances []Instance) (*Fleet, error) {
	if len(instances) == 0 {
		return nil, errors.New("fleet: no instances")
	}
	cfg = cfg.withDefaults(len(instances))
	f := &Fleet{
		cfg:    cfg,
		byID:   make(map[string]*instanceState, len(instances)),
		shared: make(map[string]bool, len(cfg.SharedSubjects)),
	}
	for _, s := range cfg.SharedSubjects {
		f.shared[s] = true
	}
	for _, inst := range instances {
		if inst.Testbed == nil || inst.Monitor == nil {
			return nil, fmt.Errorf("fleet: instance %q needs a testbed and a monitor", inst.ID)
		}
		if f.byID[inst.ID] != nil {
			return nil, fmt.Errorf("fleet: duplicate instance ID %q", inst.ID)
		}
		st := &instanceState{Instance: inst}
		f.instances = append(f.instances, st)
		f.byID[inst.ID] = st
	}

	// Partition the instances into shards by ID hash; hash vacancies
	// collapse, so every shard has an instance.
	groups := make([][]*instanceState, cfg.Shards)
	for _, st := range f.instances {
		gi := shardOf(st.ID, cfg.Shards)
		groups[gi] = append(groups[gi], st)
	}
	sharded := cfg.Shards > 1
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sh := &shard{
			id:        len(f.shards),
			f:         f,
			instances: g,
			probed:    make(map[string]bool),
		}
		svcCfg := cfg.Service
		if sharded {
			svcCfg.ShardLabel = strconv.Itoa(sh.id)
		}
		sh.resident.Store(int64(len(g)))
		sh.svc = service.New(EnvOf(g[0].Testbed, cfg.SymDB), svcCfg)
		for _, st := range g {
			st.Attach(sh.svc, cfg.SymDB)
		}
		if !cfg.Learn.Disabled {
			sh.svc.OnDiagnosis = sh.onDiagnosis
			sh.svc.OnHealthy = sh.onHealthy
		}
		sh.svc.Self = cfg.SelfObserver
		sh.initTelemetry(sharded)
		f.shards = append(f.shards, sh)
	}
	f.ex = newExchange(NewLearner(cfg.Learn, cfg.SymDB))
	f.registerTelemetryFuncs()
	return f, nil
}

// registerTelemetryFuncs installs scrape-time callbacks over the
// candidate lifecycle. The callbacks take the Learner's lock; the
// registry invokes them outside its own lock, so scrapes never order
// against the loop.
func (f *Fleet) registerTelemetryFuncs() {
	reg := telemetry.Default()
	learnVal := func(read func(l *learner) float64) func() float64 {
		return func() float64 { return f.ex.learn.read(read) }
	}
	candidates := func(state string, n func(l *learner) int) func() {
		return reg.GaugeFunc("diads_fleet_candidates", "Mined symptom candidates by lifecycle state.",
			telemetry.Labels{"state": state}, learnVal(func(l *learner) float64 { return float64(n(l)) }))
	}
	f.freeze = []func(){
		candidates("pending", func(l *learner) int { return len(l.pending) }),
		candidates("installed", func(l *learner) int { return len(l.installed) }),
		candidates("rejected", func(l *learner) int { return len(l.rejectedList) }),
		reg.CounterFunc("diads_fleet_incidents_confirmed_total",
			"Confirmed incidents fed to the symptom miner.",
			nil, learnVal(func(l *learner) float64 { return float64(l.confirmed) })),
		reg.CounterFunc("diads_fleet_transfers_total",
			"Cross-instance symptom transfers (mined entry scored high on a non-author).",
			nil, learnVal(func(l *learner) float64 { return float64(l.transfers) })),
		reg.GaugeFunc("diads_fleet_healthy_corpus_size",
			"Healthy-period fact bases available to the validator.",
			nil, learnVal(func(l *learner) float64 { return float64(l.validator.HealthyCount()) })),
		reg.GaugeFunc("diads_fleet_resident_instances",
			"Instances currently resident (service env registered, not hibernated).",
			nil, func() float64 {
				var n int64
				for _, sh := range f.shards {
					n += sh.resident.Load()
				}
				return float64(n)
			}),
	}
}

// Run streams every instance to the end of its timeline and returns the
// merged fleet report. It may be called once.
func (f *Fleet) Run(ctx context.Context) (*Report, error) {
	if f.ran {
		return nil, errors.New("fleet: already ran")
	}
	f.ran = true
	for _, sh := range f.shards {
		sh.svc.Start(ctx)
	}
	err := f.drive(ctx)
	for _, sh := range f.shards {
		sh.svc.Stop()
	}
	for _, freeze := range f.freeze {
		freeze()
	}
	if err != nil {
		// A cancellation mid-wave surfaces in the loop as the halted
		// service refusing the next events; report the cancellation.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return nil, err
	}
	return f.report(), nil
}

// drive is the fleet's loop, one pass per chunk barrier: step every
// live instance, release what the watermarks cover, diagnose and fold
// every learning epoch the frontier has completed, then show each shard
// to the hook and run retention. Nothing steps while anything diagnoses.
func (f *Fleet) drive(ctx context.Context) error {
	live := make([]*instanceState, len(f.instances))
	for i, st := range f.instances {
		st.stream = st.Testbed.Stream(f.cfg.Chunk)
		live[i] = st
	}
	var now simtime.Time
	for len(live) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := each(len(live), f.cfg.MaxStreams, func(i int) error {
			st := live[i]
			if st.ended {
				st.watermark = monitor.EndOfStream
				return nil
			}
			var err error
			st.watermark, st.ended, err = st.stream.Next()
			return err
		})
		if err != nil {
			return err
		}
		next := live[:0]
		for _, st := range live {
			if st.watermark != monitor.EndOfStream {
				now = max(now, st.watermark)
				next = append(next, st)
			}
		}
		live = next

		frontier := monitor.EndOfStream
		released := make([][]monitor.SlowdownEvent, len(f.shards))
		for i, sh := range f.shards {
			for _, st := range sh.instances {
				released[i] = append(released[i], st.Release(st.watermark)...)
				frontier = min(frontier, st.watermark)
			}
			sh.buffered = append(sh.buffered, released[i]...)
		}
		if err := f.advance(ctx, frontier); err != nil {
			return err
		}
		for i, sh := range f.shards {
			if f.cfg.OnBarrier != nil {
				b := Barrier{Now: now, Final: len(live) == 0, Released: released[i], Service: sh.svc}
				if err := f.cfg.OnBarrier(b); err != nil {
					return err
				}
			}
			if f.cfg.Retention {
				sh.retain()
			}
		}
	}
	return nil
}

// advance diagnoses, in order, every learning epoch the frontier has
// completed that holds released events — each shard its own events of
// the epoch, all shards at once — and folds each into the learner
// before the next begins, so every diagnosis of epoch e sees the
// database as of the fold of e-1. Events of incomplete epochs (a
// finished instance's tail, released whole while others still stream)
// stay buffered.
func (f *Fleet) advance(ctx context.Context, frontier simtime.Time) error {
	done := completeThrough(frontier)
	for {
		e := int64(epochDone)
		for _, sh := range f.shards {
			for _, ev := range sh.buffered {
				e = min(e, epochOf(ev.ReadWindow.End))
			}
		}
		if e > done || e == epochDone {
			return nil
		}
		err := each(len(f.shards), len(f.shards), func(i int) error {
			return f.shards[i].processEpoch(ctx, e)
		})
		if err != nil {
			return err
		}
		if !f.cfg.Learn.Disabled {
			f.ex.fold(e)
		}
	}
}

// each runs fn for every index below n on at most width goroutines
// (inline when one suffices) and returns the lowest-indexed error.
func each(n, width int, fn func(i int) error) error {
	if width >= n {
		width = n
	}
	if width <= 1 {
		for i := range n {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// quietFacts replays the diagnosis machinery over the event's
// satisfactory baseline, pseudo-labeling the latest healthy run as
// unsatisfactory. It returns nil when the baseline is too short to
// diagnose or the probe fails; the corpus just grows from other probes
// and low-confidence diagnoses instead. The environment carries no
// symptoms database: the probe wants the facts, not a diagnosis.
func quietFacts(ctx context.Context, env service.Env, ev monitor.SlowdownEvent) *symptoms.FactBase {
	var sat []*exec.RunRecord
	for _, r := range ev.Runs {
		if good, labeled := ev.Satisfactory[r.RunID]; labeled && good {
			sat = append(sat, r)
		}
	}
	// The probe needs the workflow's floor of satisfactory runs plus the
	// pseudo-unsatisfactory one.
	if len(sat) < diag.MinSatisfactory+1 {
		return nil
	}
	labels := make(map[string]bool, len(sat))
	for _, r := range sat {
		labels[r.RunID] = true
	}
	labels[sat[len(sat)-1].RunID] = false
	res, err := diag.DiagnoseContext(ctx, env.Input(ev.Query, sat, labels))
	if err != nil || res == nil {
		return nil
	}
	return res.Facts
}
