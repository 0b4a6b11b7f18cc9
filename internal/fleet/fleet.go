// Package fleet runs many database+SAN instances through one shared
// diagnosis pipeline — what the paper's symptoms-database design
// (Section 7) anticipates: diagnosis knowledge amortized across
// deployments. It is also the one loop that drives a simulated
// instance: the single-instance online driver is a one-instance fleet.
//
// A Fleet streams N independent testbed instances concurrently, each on
// its own seed and timeline, partitioned into shards by instance hash.
// Each shard has its own coordinator goroutine and its own
// service.Service (worker pool, dedup set, impact registry,
// instance-scoped APG/SD caches): a shard's instances synchronize at
// chunk boundaries, and at each barrier the shard's coordinator
// releases from each instance runtime (instance.go) the slowdown events
// whose read windows the metric watermark covers and diagnoses them in
// evidence-time waves — sorted by read-window end, with the worker pool
// settled between waves. Shards share nothing on that hot path; they
// meet only at the symptom-learning exchange, where healthy-corpus and
// confirmed-incident contributions fold into the central learner at
// deterministic evidence-time epoch seals (see exchange.go), and at the
// end-of-run merge, which concatenates the per-shard registries into
// one fleet-wide ranking.
//
// Because diagnosis state is instance-scoped throughout, because every
// cross-instance learning effect happens at an epoch seal ordered by
// evidence time alone, and because the wave order depends only on the
// event stream, a fleet run is byte-identical per seed regardless of
// MaxStreams, service worker count, simulation chunk size, or shard
// count — and diagnosis never races metric emission: instances are
// parked while their events are diagnosed.
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
)

// Config tunes the fleet.
type Config struct {
	// SymDB is the fleet-shared symptoms database every instance
	// diagnoses against and the learning loop installs mined entries
	// into (default symptoms.Builtin()).
	SymDB *symptoms.DB
	// Chunk is the simulation chunk, the monitoring lag and the
	// coordination granularity (default 10 minutes).
	Chunk simtime.Duration
	// MaxStreams caps concurrently-simulating instances (0 = all). The
	// cap is fleet-wide — one semaphore shared across every shard's
	// instances. Coordination is barrier-synchronized, so the setting
	// changes wall time only, never results.
	MaxStreams int
	// Shards partitions the instances (by ID hash) into independent
	// coordinator+service slices (default 1; clamped to the instance
	// count). Sharding changes wall time and telemetry labels only:
	// reports are byte-identical across shard counts.
	Shards int
	// Service tunes the shared diagnosis service. Queue and cache sizes
	// of zero are raised to fleet-scale defaults generous enough that
	// no event is shed and no cache entry evicted mid-run — shedding
	// and eviction under concurrency are the two ways a fleet run could
	// lose determinism.
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
	// after the shard's diagnoses have settled and before its instances
	// resume — the coordinator truncates every instance's metric store,
	// SAN timelines, and run history to the instance's evidence low
	// watermark: the oldest time any future diagnosis can still read
	// (monitor history, gated events, buffered epoch events, each padded
	// through the one evidence-window contract). Reports are
	// byte-identical with retention on or off; only memory changes.
	Retention bool
	// OnBarrier, when non-nil, observes each shard's chunk barriers; an
	// error fails the run.
	OnBarrier func(Barrier) error
	// ResidentCap bounds each shard's resident (non-hibernated)
	// instances when Retention is on (0 = unlimited). Past the cap,
	// instances with no gated or buffered events hibernate: their
	// service environment and instance-scoped cache entries page out,
	// and they rehydrate automatically — before any Submit — when a
	// later barrier releases an event of theirs. Cached artifacts are
	// pure functions of instance state, so the page-out/page-in cycle
	// costs recomputation only, never a result.
	ResidentCap int
}

// Barrier is what Config.OnBarrier sees at a shard's chunk barrier: the
// barrier time (a metric watermark; at the Final barrier every instance
// has finished), the detections it released, and the shard's service.
// The hook runs on the coordinator after the barrier's epochs are
// diagnosed and before retention, with every instance parked: it may
// read their stores and the settled service, but must not submit.
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
	if c.Service.Queue <= 0 {
		c.Service.Queue = 1024
	}
	// An entry is the cause one completed job named, a few strings and
	// numbers, not the job's Result.
	if c.Service.ResultCacheSize <= 0 {
		c.Service.ResultCacheSize = 4096
	}
	// APGCacheSize defaults per shard in New — 64 entries per shard
	// instance, capped at apgCacheCap — so a 1000-instance fleet no
	// longer allocates an unbounded 64k-entry cache.
	if c.Service.SDCacheSize <= 0 {
		c.Service.SDCacheSize = 4096
	}
	c.Learn = c.Learn.withDefaults()
	return c
}

// apgCacheCap bounds the default per-shard APG cache regardless of how
// many instances the shard holds. Past the cap, LRU eviction is
// possible; evictions are visible via diads_cache_evictions_total and
// cost recomputation only — every cached artifact is a pure function of
// instance state, so eviction can never change a result, only wall
// time.
const apgCacheCap = 4096

// instanceState is the fleet's per-instance bookkeeping around the
// instance runtime, which the shard coordinator drives only while the
// instance is parked at a barrier; transfers is written by service
// workers, hence atomic.
type instanceState struct {
	Instance
	resume    chan struct{}
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

	failMu   sync.Mutex
	firstErr error
	cancel   context.CancelFunc

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
		st := &instanceState{Instance: inst, resume: make(chan struct{}, 1)}
		f.instances = append(f.instances, st)
		f.byID[inst.ID] = st
	}

	// Partition the instances into shards by ID hash; hash vacancies
	// collapse (the exchange needs a declaration stream from every
	// shard it tracks, so empty shards must not exist).
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
			id:              len(f.shards),
			f:               f,
			instances:       g,
			probed:          make(map[string]bool),
			deposited:       make(map[incidentID]bool),
			declaredThrough: -1,
		}
		svcCfg := cfg.Service
		if svcCfg.APGCacheSize <= 0 {
			size := 64 * len(g)
			if size > apgCacheCap {
				size = apgCacheCap
			}
			svcCfg.APGCacheSize = size
		}
		if sharded {
			svcCfg.ShardLabel = strconv.Itoa(sh.id)
		}
		sh.resident.Store(int64(len(g)))
		sh.svc = service.New(EnvOf(g[0].Testbed, cfg.SymDB), svcCfg)
		for _, st := range g {
			st.Attach(sh.svc, cfg.SymDB)
		}
		sh.svc.OnDiagnosis = sh.onDiagnosis
		sh.svc.OnHealthy = sh.onHealthy
		sh.svc.Self = cfg.SelfObserver
		sh.initTelemetry(sharded)
		f.shards = append(f.shards, sh)
	}
	f.ex = newExchange(cfg.Learn, newLearner(cfg.Learn, cfg.SymDB), len(f.shards))
	f.registerTelemetryFuncs()
	return f, nil
}

// registerTelemetryFuncs installs scrape-time callbacks over the
// candidate lifecycle. The callbacks take the exchange lock; the
// registry invokes them outside its own lock, so scrapes never order
// against the coordinators.
func (f *Fleet) registerTelemetryFuncs() {
	reg := telemetry.Default()
	learnVal := func(read func(l *learner) float64) func() float64 {
		return func() float64 { return f.ex.read(read) }
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

// chunkMsg is one instance's arrival at a chunk boundary (or its
// completion).
type chunkMsg struct {
	idx  int
	now  simtime.Time
	done bool
	err  error
}

// Run streams every instance to the end of its timeline and returns the
// merged fleet report. It may be called once. Each shard runs its own
// coordinator; Run fans them out, waits, and merges.
func (f *Fleet) Run(ctx context.Context) (*Report, error) {
	if f.ran {
		return nil, errors.New("fleet: already ran")
	}
	f.ran = true

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.cancel = cancel

	sem := make(chan struct{}, f.cfg.MaxStreams)
	var wg sync.WaitGroup
	for _, sh := range f.shards {
		sh.svc.Start(ctx)
	}
	for _, sh := range f.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.run(ctx, sem)
		}(sh)
	}
	wg.Wait()
	for _, freeze := range f.freeze {
		freeze()
	}

	f.failMu.Lock()
	err := f.firstErr
	f.failMu.Unlock()
	if err == nil {
		// A caller-canceled context unwinds the instances with plain
		// context.Canceled errors, which fail() filters; surface the
		// cancellation itself rather than an empty report. The fleet's
		// own deferred cancel has not run yet, so a successful run
		// reads a nil cause here.
		err = context.Cause(ctx)
	}
	if err != nil {
		return nil, err
	}
	return f.report(), nil
}

// fail records the first real failure, cancels the run, and unwedges
// the learning exchange. Plain cancellations and exchange aborts are
// the unwind of an earlier failure (or of the caller's context), not a
// cause of their own.
func (f *Fleet) fail(err error) {
	if err == nil {
		return
	}
	f.failMu.Lock()
	if f.firstErr == nil && !errors.Is(err, context.Canceled) && !errors.Is(err, errAborted) {
		f.firstErr = err
	}
	f.failMu.Unlock()
	f.cancel()
	f.ex.abort()
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
