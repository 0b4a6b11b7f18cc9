// Package service turns the monitor's SlowdownEvents into diagnoses at
// fleet scale: a bounded worker pool drains a job queue with
// backpressure, in-flight jobs are deduplicated per (query, window),
// built Annotated Plan Graphs and symptoms-database evaluations are
// LRU-cached so repeated diagnoses of the same plan are near-free, and
// completed diagnoses feed a results registry that ranks open incidents
// by estimated impact (Module IA's score weighted by the slowdown each
// incident explains).
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diads/internal/apg"
	"diads/internal/cache"
	"diads/internal/dbsys"
	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/metrics"
	"diads/internal/monitor"
	"diads/internal/opt"
	"diads/internal/pipeline"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
	"diads/internal/topology"
)

// Submit errors.
var (
	// ErrBackpressure reports a full job queue: the caller should shed
	// or retry later; the event is counted as rejected.
	ErrBackpressure = errors.New("service: job queue full")
	// ErrDuplicate reports that an equivalent job is already queued,
	// running, or freshly diagnosed.
	ErrDuplicate = errors.New("service: duplicate job for (query, window)")
	// ErrStopped reports a Submit after Stop.
	ErrStopped = errors.New("service: stopped")
)

// Env is the diagnosis environment shared by every job: the monitoring
// store and the configuration state diag.Input requires. It is read-only
// from the service's perspective.
type Env struct {
	Store  *metrics.Store
	Cfg    *topology.Config
	Cat    *dbsys.Catalog
	Opt    *opt.Optimizer
	Params *dbsys.Params
	Stats  dbsys.Stats
	Server topology.ID
	SymDB  *symptoms.DB
	// Threshold overrides the anomaly-score threshold (0 = default).
	Threshold float64
}

// Input is the one view of the environment as a diagnosis input over
// the given labeled runs (caches and trace identity are the caller's).
func (e Env) Input(query string, runs []*exec.RunRecord, satisfactory map[string]bool) *diag.Input {
	return &diag.Input{
		Query: query, Runs: runs, Satisfactory: satisfactory,
		Store: e.Store, Cfg: e.Cfg, Cat: e.Cat, Opt: e.Opt,
		Params: e.Params, Stats: e.Stats, Server: e.Server,
		SymDB: e.SymDB, Threshold: e.Threshold,
	}
}

// Config tunes the service.
type Config struct {
	// Workers is the pool size (default 4).
	Workers int
	// Queue is the job queue depth before Submit reports backpressure
	// (default 64).
	Queue int
	// APGCacheSize bounds the shared APG cache (default 32 plans).
	APGCacheSize int
	// SDCacheSize bounds the symptoms-evaluation cache (default 128).
	SDCacheSize int
	// ResultCacheSize bounds the completed-diagnosis cache that absorbs
	// re-submissions of an already-diagnosed (query, window) (default 128).
	ResultCacheSize int
	// ShardLabel, when non-empty, labels this service's scrape-time
	// callback metrics (queue depth, cache counters) with {"shard": v}.
	// A sharded fleet constructs one service per shard; without the
	// label, each registration would replace the previous shard's series.
	// Standalone services leave it empty and keep the unlabeled series.
	ShardLabel string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.APGCacheSize <= 0 {
		c.APGCacheSize = 32
	}
	if c.SDCacheSize <= 0 {
		c.SDCacheSize = 128
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 128
	}
	return c
}

// jobKey identifies a diagnosis job for deduplication: same instance,
// same query, same evidence read window. The window bounds are kept as
// simtime values, not converted to a different numeric type — dedup
// identity must be exactly the event's window, never an alias of it.
type jobKey struct {
	instance string
	query    string
	window   simtime.Interval // the event's evidence read window
}

// pendingStripes fans the dedup set out over independently locked
// stripes, so concurrent Submits for different keys stop serializing on
// one service-wide mutex (the contention the inst=8 bench exposed).
const pendingStripes = 16

type pendingStripe struct {
	mu sync.Mutex
	m  map[jobKey]bool
}

// stripe hashes the key (FNV-1a, inline so the hot path allocates
// nothing) onto its dedup stripe.
func (k jobKey) stripe() int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.instance); i++ {
		h = (h ^ uint64(k.instance[i])) * prime64
	}
	h = (h ^ 0xff) * prime64 // separator: ("a","bc") != ("ab","c")
	for i := 0; i < len(k.query); i++ {
		h = (h ^ uint64(k.query[i])) * prime64
	}
	h = (h ^ math.Float64bits(float64(k.window.Start))) * prime64
	h = (h ^ math.Float64bits(float64(k.window.End))) * prime64
	return int(h % pendingStripes)
}

type job struct {
	key jobKey
	ev  monitor.SlowdownEvent
	// enqueued is the wall-clock instant Submit placed the job on the
	// queue; the dequeuing worker turns it into the queue-wait histogram
	// and span. Observational only — simulation time is untouched.
	enqueued time.Time
}

// Stats is the service's typed lifetime snapshot: counters, cache
// effectiveness, and the instantaneous queue depth. It is the one
// structure both the console summary and the /metrics exposition are
// derived from.
type Stats struct {
	Submitted  int64 // Submit calls
	Deduped    int64 // suppressed as queued/running/cached duplicates
	Rejected   int64 // shed under backpressure
	Completed  int64 // diagnoses finished
	Failed     int64 // diagnoses that returned an error
	QueueDepth int   // jobs currently waiting in the queue
	APG        cache.CacheStats
	SD         cache.CacheStats
	Results    cache.CacheStats
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf(
		"submitted=%d deduped=%d rejected=%d completed=%d failed=%d apg-cache=%d/%d sd-cache=%d/%d",
		s.Submitted, s.Deduped, s.Rejected, s.Completed, s.Failed,
		s.APG.Hits, s.APG.Hits+s.APG.Misses, s.SD.Hits, s.SD.Hits+s.SD.Misses)
}

// SelfObserver receives the wall time of every completed diagnosis.
// The dogfood loop (telemetry/selfmon) implements it: diadsd's own
// per-diagnosis latencies become a monitored workload, watched by its
// own monitor, so the diagnoser can raise a SlowdownEvent about itself.
type SelfObserver interface {
	ObserveDiagnosis(query string, wall time.Duration)
}

// serviceTelemetry bundles the service's shared instruments. Every
// service in the process (one per fleet in fleet mode) increments the
// same families on the default registry, so /metrics aggregates the
// whole process.
type serviceTelemetry struct {
	submitted *telemetry.Counter
	deduped   *telemetry.Counter
	rejected  *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	queueWait *telemetry.Histogram
	diagWall  *telemetry.Histogram
}

func newServiceTelemetry() serviceTelemetry {
	reg := telemetry.Default()
	outcomes := func(outcome string) *telemetry.Counter {
		return reg.Counter("diads_service_jobs_total",
			"Diagnosis jobs by submit/run outcome.",
			telemetry.Labels{"outcome": outcome})
	}
	return serviceTelemetry{
		submitted: outcomes("submitted"),
		deduped:   outcomes("deduped"),
		rejected:  outcomes("rejected"),
		completed: outcomes("completed"),
		failed:    outcomes("failed"),
		queueWait: reg.Histogram("diads_service_queue_wait_seconds",
			"Wall time a job spent queued between Submit and worker dequeue.",
			nil, nil),
		diagWall: reg.Histogram("diads_service_diagnosis_wall_seconds",
			"Wall time of one complete diagnosis workflow.",
			nil, nil),
	}
}

// Service is the concurrent diagnosis engine. Construct with New, Start
// it, Submit events, and Stop (or cancel the context) to drain.
type Service struct {
	cfg Config
	env Env
	// envs holds per-instance diagnosis environments, keyed by
	// SlowdownEvent.Instance; events without an instance tag use env.
	// envmu guards it so AddInstance may run while the pool is serving —
	// the HTTP ingest path registers tenants on first contact.
	envmu sync.RWMutex
	envs  map[string]Env

	// OnDiagnosis, when non-nil, observes every completed diagnosis
	// (called from worker goroutines after the registry is updated). The
	// fleet layer hangs its symptom-transfer accounting on it. Set it
	// before Start.
	OnDiagnosis func(ev monitor.SlowdownEvent, res *diag.Result)

	// OnHealthy, when non-nil, observes the fact base of every completed
	// diagnosis that found nothing: no plan change and no cause above low
	// confidence. Such a diagnosis is a snapshot of ordinary operation —
	// facts that fire without an identifiable problem — and the fleet
	// layer feeds these bases to the symptom miner's background filter
	// and the candidate validator's healthy corpus. Called from worker
	// goroutines; set it before Start.
	OnHealthy func(ev monitor.SlowdownEvent, facts *symptoms.FactBase)

	// Self, when non-nil, observes every completed diagnosis's wall time
	// (called from worker goroutines). The dogfood loop hangs off it. Set
	// it before Start.
	Self SelfObserver

	jobs chan job
	quit chan struct{} // closed by Stop; retires the ctx watcher
	// sendMu serializes enqueues against Stop's close of the jobs
	// channel: Submit sends under the read lock, Stop closes under the
	// write lock after flipping stopped, so no send can hit a closed
	// channel. Reads share the lock, so Submits never contend with each
	// other here.
	sendMu  sync.RWMutex
	stopped atomic.Bool
	// pending is the striped queued-or-running dedup set; inflight
	// counts its members so Wait does not have to sweep the stripes.
	pending  [pendingStripes]pendingStripe
	inflight atomic.Int64
	idleMu   sync.Mutex
	idle     sync.Cond // signaled under idleMu when inflight drains to 0

	apgs    *cache.LRU[string, *apg.APG]
	sd      *cache.LRU[string, []symptoms.CauseInstance]
	results *cache.LRU[jobKey, *diag.Result]
	reg     *Registry

	modmu    sync.Mutex
	modstats map[string]*ModuleStat
	modorder []string

	wg sync.WaitGroup

	tel serviceTelemetry
	// freeze detaches the scrape callbacks from the service (see
	// telemetry.Registry.CounterFunc); Stop calls them.
	freeze []func()

	submitted, deduped, rejected, completed, failed atomic.Int64
}

// New returns a service over the environment.
func New(env Env, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		env:      env,
		jobs:     make(chan job, cfg.Queue),
		quit:     make(chan struct{}),
		apgs:     cache.New[string, *apg.APG](cfg.APGCacheSize),
		sd:       cache.New[string, []symptoms.CauseInstance](cfg.SDCacheSize),
		results:  cache.New[jobKey, *diag.Result](cfg.ResultCacheSize),
		reg:      NewRegistry(),
		modstats: make(map[string]*ModuleStat),
		tel:      newServiceTelemetry(),
	}
	for i := range s.pending {
		s.pending[i].m = make(map[jobKey]bool)
	}
	s.idle.L = &s.idleMu
	s.registerFuncs()
	return s
}

// registerFuncs installs the scrape-time callbacks: instantaneous queue
// depth and the shared caches' lifetime hit/miss/eviction totals (the
// counters PR 4 dropped from OnlineResult.Render re-surface here).
// Re-registering replaces the callback for a given (name, labels)
// series, so the newest service owns it — tests and restarting daemons
// construct many services. A sharded fleet sets Config.ShardLabel so
// each shard's service keeps its own series instead of replacing its
// siblings'; standalone services keep the unlabeled series the
// telemetry smoke test requires.
func (s *Service) registerFuncs() {
	reg := telemetry.Default()
	var shard telemetry.Labels
	if s.cfg.ShardLabel != "" {
		shard = telemetry.Labels{"shard": s.cfg.ShardLabel}
	}
	s.freeze = append(s.freeze, reg.GaugeFunc("diads_service_queue_depth",
		"Diagnosis jobs currently waiting in the queue.",
		shard, func() float64 { return float64(len(s.jobs)) }))
	caches := map[string]func() cache.CacheStats{
		"apg":    s.apgs.Stats,
		"sd":     s.sd.Stats,
		"result": s.results.Stats,
	}
	for name, statsOf := range caches {
		labels := telemetry.Labels{"cache": name}
		if s.cfg.ShardLabel != "" {
			labels["shard"] = s.cfg.ShardLabel
		}
		statsOf := statsOf
		s.freeze = append(s.freeze,
			reg.CounterFunc("diads_cache_hits_total",
				"Shared diagnosis-cache hits.", labels,
				func() float64 { return float64(statsOf().Hits) }),
			reg.CounterFunc("diads_cache_misses_total",
				"Shared diagnosis-cache misses.", labels,
				func() float64 { return float64(statsOf().Misses) }),
			reg.CounterFunc("diads_cache_evictions_total",
				"Shared diagnosis-cache evictions.", labels,
				func() float64 { return float64(statsOf().Evictions) }))
	}
}

// AddInstance registers a per-instance diagnosis environment: events
// tagged with the instance ID diagnose against it instead of the default
// environment. Safe to call while the service is running (the HTTP
// ingest path registers tenant instances on first contact); events for
// unregistered instances fail their diagnosis (counted in Stats.Failed).
func (s *Service) AddInstance(id string, env Env) {
	s.envmu.Lock()
	defer s.envmu.Unlock()
	if s.envs == nil {
		s.envs = make(map[string]Env)
	}
	s.envs[id] = env
}

// RemoveInstance unregisters a per-instance environment and purges the
// instance's scoped entries from the shared APG/SD/result caches — the
// dehydrate half of the instance lifecycle (fleet hibernation, HTTP
// tenant idle-out). Safe to call while the service is running, but the
// caller must guarantee no job for the instance is queued or in flight
// (the fleet removes only parked instances with empty gates; the API's
// single intake worker removes only idle instances), or subsequent
// diagnoses fail with an unknown environment. Removal changes memory
// only: cached artifacts are pure functions of instance state, so a
// later re-registration recomputes identical values.
func (s *Service) RemoveInstance(id string) {
	if id == "" {
		return
	}
	s.envmu.Lock()
	delete(s.envs, id)
	s.envmu.Unlock()
	prefix := id + "|" // diag cache keys are CacheScope + "|" + artifact identity
	s.apgs.RemoveIf(func(k string) bool { return strings.HasPrefix(k, prefix) })
	s.sd.RemoveIf(func(k string) bool { return strings.HasPrefix(k, prefix) })
	s.results.RemoveIf(func(k jobKey) bool { return k.instance == id })
}

// HasInstance reports whether a per-instance environment is registered.
func (s *Service) HasInstance(id string) bool {
	s.envmu.RLock()
	defer s.envmu.RUnlock()
	_, ok := s.envs[id]
	return ok
}

// EnvFor resolves the environment an event of the instance diagnoses
// against ("" is the default environment).
func (s *Service) EnvFor(instance string) (Env, bool) {
	if instance == "" {
		return s.env, true
	}
	s.envmu.RLock()
	env, ok := s.envs[instance]
	s.envmu.RUnlock()
	return env, ok
}

// Registry exposes the ranked-incident registry.
func (s *Service) Registry() *Registry { return s.reg }

// Stats returns the lifetime counters, including cache effectiveness.
func (s *Service) Stats() Stats {
	return Stats{
		Submitted:  s.submitted.Load(),
		Deduped:    s.deduped.Load(),
		Rejected:   s.rejected.Load(),
		Completed:  s.completed.Load(),
		Failed:     s.failed.Load(),
		QueueDepth: len(s.jobs),
		APG:        s.apgs.Stats(),
		SD:         s.sd.Stats(),
		Results:    s.results.Stats(),
	}
}

// Start launches the worker pool. Workers exit when the context is
// canceled or Stop closes the queue. Canceling the context abandons any
// still-queued jobs: they are dropped from the pending set so Wait does
// not block on work nothing will ever run.
func (s *Service) Start(ctx context.Context) {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(ctx)
	}
	go func() {
		select {
		case <-ctx.Done():
			s.stopped.Store(true)
			s.drainPending()
		case <-s.quit:
		}
	}()
}

// Stop closes the queue and waits for in-flight diagnoses to finish.
// Submit returns ErrStopped afterwards. Jobs still queued when the
// workers exit (possible when the start context was canceled) are
// abandoned and removed from the pending set so Wait cannot block on
// them.
func (s *Service) Stop() {
	if !s.stopped.Swap(true) {
		close(s.quit)
		// The write lock excludes every in-flight Submit send; any
		// Submit arriving after sees stopped and never reaches the
		// channel, so the close below cannot race a send.
		s.sendMu.Lock()
		close(s.jobs)
		s.sendMu.Unlock()
	}
	s.wg.Wait()
	s.drainPending()
	for _, freeze := range s.freeze {
		freeze()
	}
}

// drainPending abandons every queued-or-running reservation: stripes are
// cleared and the inflight count settled so Wait cannot block on work
// nothing will ever run. Workers racing a drain are harmless — finish's
// membership check makes the decrement exactly-once per key.
func (s *Service) drainPending() {
	for i := range s.pending {
		st := &s.pending[i]
		st.mu.Lock()
		n := len(st.m)
		clear(st.m)
		st.mu.Unlock()
		if n > 0 && s.inflight.Add(int64(-n)) <= 0 {
			s.idleMu.Lock()
			s.idle.Broadcast()
			s.idleMu.Unlock()
		}
	}
}

// finish releases a key's queued-or-running reservation. The membership
// check keeps the inflight decrement exactly-once when a worker's
// deferred finish races drainPending.
func (s *Service) finish(key jobKey) {
	st := &s.pending[key.stripe()]
	st.mu.Lock()
	was := st.m[key]
	delete(st.m, key)
	st.mu.Unlock()
	if !was {
		return
	}
	if s.inflight.Add(-1) == 0 {
		s.idleMu.Lock()
		s.idle.Broadcast()
		s.idleMu.Unlock()
	}
}

// Wait blocks until every currently queued job has been diagnosed. It is
// a quiescence barrier for drivers that interleave submission and
// reporting; new Submits remain allowed.
func (s *Service) Wait() {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	for s.inflight.Load() > 0 {
		s.idle.Wait()
	}
}

// Submit enqueues a diagnosis job for the event. It never blocks: a full
// queue returns ErrBackpressure, an already-pending or already-diagnosed
// (query, window) returns ErrDuplicate (bumping the incident's
// recurrence when a cached result exists). The hot path takes only the
// key's dedup stripe and a shared read lock — no service-wide mutex.
func (s *Service) Submit(ev monitor.SlowdownEvent) error {
	s.submitted.Add(1)
	s.tel.submitted.Inc()
	key := jobKey{instance: ev.Instance, query: ev.Query, window: ev.ReadWindow}

	if s.stopped.Load() {
		return ErrStopped
	}
	// Reserve the key first, then consult the result cache. The
	// reservation makes concurrent same-key Submits mutually exclusive,
	// and because run() caches the result before releasing its
	// reservation, a reservation acquired here after a completed run is
	// guaranteed to see that run's cached result below.
	st := &s.pending[key.stripe()]
	st.mu.Lock()
	if st.m[key] {
		st.mu.Unlock()
		s.deduped.Add(1)
		s.tel.deduped.Inc()
		s.span(ev.TraceID, "service.submit", attr("outcome", "deduped-pending"))
		return ErrDuplicate
	}
	st.m[key] = true
	s.inflight.Add(1)
	st.mu.Unlock()

	if res, ok := s.results.Get(key); ok {
		s.finish(key)
		s.deduped.Add(1)
		s.tel.deduped.Inc()
		s.span(ev.TraceID, "service.submit", attr("outcome", "deduped-cached"))
		s.reg.Record(ev, res) // recurrence of a known incident
		return ErrDuplicate
	}

	// Send under the read lock so the enqueue cannot race Stop's close:
	// Stop flips stopped before taking the write lock, so once we hold
	// the read lock a false stopped check proves the channel is open.
	s.sendMu.RLock()
	if s.stopped.Load() {
		s.sendMu.RUnlock()
		s.finish(key)
		return ErrStopped
	}
	select {
	case s.jobs <- job{key: key, ev: ev, enqueued: time.Now()}:
		s.sendMu.RUnlock()
		s.span(ev.TraceID, "service.submit", attr("outcome", "enqueued"))
		return nil
	default:
		s.sendMu.RUnlock()
		s.finish(key)
		s.rejected.Add(1)
		s.tel.rejected.Inc()
		s.span(ev.TraceID, "service.submit", attr("outcome", "rejected"))
		return ErrBackpressure
	}
}

// Floor returns the earliest evidence a queued or running diagnosis of
// the instance may still read — the least ReadWindow.Start among its
// pending jobs — and whether it has any. It is the retention floor of a
// driver that truncates behind the pool: a job is pending from inside
// Submit until its result is recorded, so a floor read after Submit
// returned covers that event, and a job finishing meanwhile only raises
// it.
func (s *Service) Floor(instance string) (simtime.Time, bool) {
	var floor simtime.Time
	found := false
	for i := range s.pending {
		st := &s.pending[i]
		st.mu.Lock()
		for k := range st.m {
			if k.instance == instance && (!found || k.window.Start < floor) {
				floor, found = k.window.Start, true
			}
		}
		st.mu.Unlock()
	}
	return floor, found
}

// SubmitAll submits released detections in order under the one policy
// every driver shares: a duplicate is a recurrence of a known incident,
// backpressure sheds the event (counted in Stats.Rejected; the evidence
// stays in the store, so a later recurrence re-detects), and anything
// else — the service has stopped — ends the loop and is returned.
func (s *Service) SubmitAll(evs []monitor.SlowdownEvent) error {
	for _, ev := range evs {
		if err := s.Submit(ev); err != nil && err != ErrDuplicate && err != ErrBackpressure {
			return err
		}
	}
	return nil
}

// span records a zero-duration marker span on the default tracer.
func (s *Service) span(traceID, name string, attrs ...telemetry.Attr) {
	telemetry.DefaultTracer().Record(telemetry.Span{
		TraceID: traceID, Name: name, Start: time.Now(), Attrs: attrs,
	})
}

func attr(k, v string) telemetry.Attr { return telemetry.Attr{Key: k, Value: v} }

// worker drains the queue until shutdown.
func (s *Service) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case j, ok := <-s.jobs:
			if !ok {
				return
			}
			s.run(ctx, j)
		}
	}
}

// run executes one diagnosis job. The deferred finish releases the
// dedup reservation only after every code path below — in particular
// after results.Put — so Submit's reserve-then-lookup ordering holds.
func (s *Service) run(ctx context.Context, j job) {
	defer s.finish(j.key)

	wait := time.Since(j.enqueued)
	s.tel.queueWait.Observe(wait.Seconds())
	telemetry.DefaultTracer().Record(telemetry.Span{
		TraceID: j.ev.TraceID, Name: "service.queue_wait",
		Start: j.enqueued, Duration: wait,
	})

	env, ok := s.EnvFor(j.ev.Instance)
	if !ok {
		s.failed.Add(1)
		s.tel.failed.Inc()
		return
	}
	in := env.Input(j.ev.Query, j.ev.Runs, j.ev.Satisfactory)
	in.APGCache, in.SDCache = s.apgs, s.sd
	in.CacheScope, in.TraceID = j.ev.Instance, j.ev.TraceID
	diagSpan := telemetry.DefaultTracer().Start(j.ev.TraceID, "service.diagnose")
	res, err := diag.DiagnoseContext(ctx, in)
	if err != nil {
		diagSpan.End(attr("outcome", "failed"), attr("error", err.Error()))
		s.failed.Add(1)
		s.tel.failed.Inc()
		return
	}
	wall := time.Since(diagSpan.StartedAt())
	diagSpan.End(attr("outcome", "completed"), attr("query", j.ev.Query))
	s.tel.diagWall.Observe(wall.Seconds())
	s.spanModules(j.ev.TraceID, res.Trace)
	s.recordTrace(res.Trace)
	s.results.Put(j.key, res)
	s.reg.Record(j.ev, res)
	s.completed.Add(1)
	s.tel.completed.Inc()
	if s.Self != nil {
		s.Self.ObserveDiagnosis(j.ev.Query, wall)
	}
	if s.OnDiagnosis != nil {
		s.OnDiagnosis(j.ev, res)
	}
	if s.OnHealthy != nil && res.Facts != nil {
		if kind, _, _, _ := topCauseOf(res); kind == "" {
			s.OnHealthy(j.ev, res.Facts)
		}
	}
}

// spanModules turns the workflow's per-module trace into spans under the
// event's trace ID, so /traces shows detection, queueing, and every
// module of the resulting diagnosis as one story.
func (s *Service) spanModules(traceID string, t *pipeline.Trace) {
	if t == nil {
		return
	}
	for _, mt := range t.Modules {
		telemetry.DefaultTracer().Record(telemetry.Span{
			TraceID: traceID, Name: "module." + mt.Module,
			Start: time.Now(), Duration: mt.Wall,
			Attrs: []telemetry.Attr{{Key: "status", Value: string(mt.Status)}},
		})
	}
}

// ModuleStat aggregates one workflow module's behavior across every
// diagnosis the service completed.
type ModuleStat struct {
	Module    string
	Runs      int64 // times the module executed
	CacheHits int64 // times the engine satisfied it from a cache
	Skipped   int64 // times a short circuit skipped it (plan changes)
	Wall      time.Duration
}

// recordTrace folds one diagnosis's trace into the per-module totals.
func (s *Service) recordTrace(t *pipeline.Trace) {
	if t == nil {
		return
	}
	s.modmu.Lock()
	defer s.modmu.Unlock()
	for _, mt := range t.Modules {
		st := s.modstats[mt.Module]
		if st == nil {
			st = &ModuleStat{Module: mt.Module}
			s.modstats[mt.Module] = st
			s.modorder = append(s.modorder, mt.Module)
		}
		switch mt.Status {
		case pipeline.StatusRan:
			st.Runs++
		case pipeline.StatusCacheHit:
			st.CacheHits++
		case pipeline.StatusSkipped:
			st.Skipped++
		}
		st.Wall += mt.Wall
	}
}

// ModuleStats returns the per-module aggregates in pipeline order — the
// fleet-level view of where diagnosis time goes and what the caches
// absorb.
func (s *Service) ModuleStats() []ModuleStat {
	s.modmu.Lock()
	defer s.modmu.Unlock()
	out := make([]ModuleStat, 0, len(s.modorder))
	for _, name := range s.modorder {
		out = append(out, *s.modstats[name])
	}
	return out
}
