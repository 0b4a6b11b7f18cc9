// Package service turns the monitor's SlowdownEvents into diagnoses at
// fleet scale: a bounded worker pool drains a bounded FIFO job queue
// (Submit waits for space, never drops a detection), waiting, queued or
// running jobs are deduplicated per (instance, query, window) under one
// admission mutex, built Annotated Plan Graphs
// and symptoms-database evaluations are LRU-cached so repeated
// diagnoses of the same plan are near-free, and completed diagnoses feed
// a results registry that ranks open incidents by estimated impact
// (Module IA's score weighted by the slowdown each incident explains).
// The service keeps no completed job: a (query, window) submitted again
// after its diagnosis finished is diagnosed again, so every change to
// the registry is a completed diagnosis.
package service

import (
	"context"
	"errors"
	"fmt"
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
	// ErrDuplicate reports that an equivalent job is already waiting
	// for queue space, queued or running.
	ErrDuplicate = errors.New("service: duplicate job for (query, window)")
	// ErrStopped reports a Submit refused because the service stopped,
	// at entry or while it waited for queue space.
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
}

// Input is the one view of the environment as a diagnosis input over
// the given labeled runs (caches and trace identity are the caller's).
func (e Env) Input(query string, runs []*exec.RunRecord, satisfactory map[string]bool) *diag.Input {
	return &diag.Input{
		Query: query, Runs: runs, Satisfactory: satisfactory,
		Store: e.Store, Cfg: e.Cfg, Cat: e.Cat, Opt: e.Opt,
		Params: e.Params, Stats: e.Stats, Server: e.Server,
		SymDB: e.SymDB,
	}
}

// Config tunes the service.
type Config struct {
	// Workers is the pool size (default 4).
	Workers int
	// Queue is the job queue depth at which Submit waits for a worker
	// to take a job (default 64).
	Queue int
	// APGCacheSize bounds the shared APG cache (default 32 plans).
	APGCacheSize int
	// SDCacheSize bounds the symptoms-evaluation cache (default 128).
	SDCacheSize int
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

type job struct {
	key jobKey
	ev  monitor.SlowdownEvent
	// enqueued is the wall-clock instant Submit was called, so a wait
	// for queue space counts as queueing; the dequeuing worker turns it
	// into the queue-wait histogram and span. Observational only —
	// simulation time is untouched.
	enqueued time.Time
}

// Stats is the service's typed lifetime snapshot: counters, cache
// effectiveness, and the instantaneous queue depth. It is the one
// structure both the console summary and the /metrics exposition are
// derived from.
type Stats struct {
	Submitted  int64 // Submit calls
	Deduped    int64 // suppressed as waiting/queued/running duplicates
	Rejected   int64 // refused or abandoned because the service stopped
	Completed  int64 // diagnoses finished
	Failed     int64 // diagnoses that returned an error
	QueueDepth int   // jobs currently waiting in the queue
	APG        cache.CacheStats
	SD         cache.CacheStats
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

	// mu guards admission: the FIFO job queue (at most Queue long), the
	// dedup set of waiting, queued and running keys, and the stopped
	// flag. cond, on mu, is broadcast on a push (for workers), a pop
	// (for Submits waiting for space), pending emptying (for Wait) and
	// a stop (for all of them).
	mu      sync.Mutex
	cond    sync.Cond
	queue   []job
	pending map[jobKey]bool
	stopped bool
	// unwatch retires Start's context callback (context.AfterFunc).
	unwatch func() bool

	apgs *cache.LRU[string, *apg.APG]
	sd   *cache.LRU[string, []symptoms.CauseInstance]
	reg  *Registry

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
		queue:    make([]job, 0, cfg.Queue),
		pending:  make(map[jobKey]bool),
		apgs:     cache.New[string, *apg.APG](cfg.APGCacheSize),
		sd:       cache.New[string, []symptoms.CauseInstance](cfg.SDCacheSize),
		reg:      NewRegistry(),
		modstats: make(map[string]*ModuleStat),
		tel:      newServiceTelemetry(),
	}
	s.cond.L = &s.mu
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
		shard, func() float64 { return float64(s.depth()) }))
	caches := map[string]func() cache.CacheStats{
		"apg": s.apgs.Stats,
		"sd":  s.sd.Stats,
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
// instance's scoped entries from the shared APG and SD caches — the
// dehydrate half of the instance lifecycle (fleet hibernation, HTTP
// tenant idle-out). Safe to call while the service is running, but the
// caller must guarantee no job for the instance is queued or in flight
// (the fleet removes only idle instances with empty gates, between
// steps; the API's idle sweep only instances no request is applying to,
// after settling the pool), or subsequent
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
		QueueDepth: s.depth(),
		APG:        s.apgs.Stats(),
		SD:         s.sd.Stats(),
	}
}

// depth is the number of jobs in the queue.
func (s *Service) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Start launches the worker pool. Workers exit when the context is
// canceled or, after Stop, once the queue is empty. Canceling the
// context abandons the queued jobs and refuses the waiting Submits (both
// counted in Stats.Rejected), so Wait does not block on work nothing
// will ever run.
func (s *Service) Start(ctx context.Context) {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(ctx)
	}
	s.unwatch = context.AfterFunc(ctx, s.halt)
}

// Stop refuses further Submits, lets the workers drain the queue, and
// waits for them to finish. A Submit still waiting for queue space
// returns ErrStopped, as does every Submit afterwards. Jobs still queued
// when the workers exit (possible when the start context was canceled)
// are abandoned.
func (s *Service) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.halt()
	if s.unwatch != nil {
		s.unwatch()
	}
	for _, freeze := range s.freeze {
		freeze()
	}
}

// halt is the one shutdown path of the queue and the pending set: it
// refuses further Submits and abandons every queued job (counted
// rejected) and every reservation, so Wait cannot block on work nothing
// will ever run. A worker still finishing an abandoned job deletes a key
// that is already gone; a Submit still waiting wakes and counts itself.
func (s *Service) halt() {
	s.mu.Lock()
	s.stopped = true
	s.rejected.Add(int64(len(s.queue)))
	s.tel.rejected.Add(int64(len(s.queue)))
	clear(s.queue)
	s.queue = s.queue[:0]
	clear(s.pending)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finish releases a key's reservation.
func (s *Service) finish(key jobKey) {
	s.mu.Lock()
	delete(s.pending, key)
	if len(s.pending) == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Wait blocks until every waiting, queued and running job has settled.
// It is a quiescence barrier for drivers that interleave submission and
// reporting; new Submits remain allowed.
func (s *Service) Wait() {
	s.mu.Lock()
	for len(s.pending) > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Submit enqueues a diagnosis job for the event. A (query, window)
// already waiting, queued or running returns ErrDuplicate; one whose
// diagnosis has finished is diagnosed again, and the registry files it
// as a recurrence of its incident. A full queue makes Submit wait until
// a worker takes a job; it never drops the event. The key is reserved
// before the wait, so a waiting job dedups, Floor covers it and Wait
// waits for it. A service stopped at entry or during the wait returns
// ErrStopped, counted in Stats.Rejected. The stopped check, the pending
// check, the reservation and the push share one critical section.
//
// Submit must never be called from a worker callback (OnDiagnosis,
// OnHealthy, Self): a worker waiting for space only its siblings can
// free may wait forever.
func (s *Service) Submit(ev monitor.SlowdownEvent) error {
	enqueued := time.Now()
	s.submitted.Add(1)
	s.tel.submitted.Inc()
	key := jobKey{instance: ev.Instance, query: ev.Query, window: ev.ReadWindow}

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return s.refuse(ev)
	}
	if s.pending[key] {
		s.mu.Unlock()
		s.deduped.Add(1)
		s.tel.deduped.Inc()
		s.span(ev.TraceID, "service.submit", attr("outcome", "deduped-pending"))
		return ErrDuplicate
	}
	s.pending[key] = true
	for len(s.queue) == s.cfg.Queue && !s.stopped {
		s.cond.Wait()
	}
	if s.stopped {
		delete(s.pending, key)
		s.cond.Broadcast()
		s.mu.Unlock()
		return s.refuse(ev)
	}
	s.queue = append(s.queue, job{key: key, ev: ev, enqueued: enqueued})
	s.cond.Broadcast()
	s.mu.Unlock()
	s.span(ev.TraceID, "service.submit", attr("outcome", "enqueued"))
	return nil
}

// refuse counts and traces a Submit refused because the service stopped.
func (s *Service) refuse(ev monitor.SlowdownEvent) error {
	s.rejected.Add(1)
	s.tel.rejected.Inc()
	s.span(ev.TraceID, "service.submit", attr("outcome", "rejected"))
	return ErrStopped
}

// Floor returns the earliest evidence a waiting, queued or running
// diagnosis of the instance may still read — the least ReadWindow.Start
// among its pending jobs — and whether it has any. It is the retention
// floor of a driver that truncates behind the pool: a job is pending
// from inside Submit, before any wait for queue space, until its result
// is recorded, so a floor read after Submit returned covers that event,
// and a job finishing meanwhile only raises it.
func (s *Service) Floor(instance string) (simtime.Time, bool) {
	var floor simtime.Time
	found := false
	s.mu.Lock()
	for k := range s.pending {
		if k.instance == instance && (!found || k.window.Start < floor) {
			floor, found = k.window.Start, true
		}
	}
	s.mu.Unlock()
	return floor, found
}

// SubmitAll submits released detections in order under the one policy
// every driver shares: each waits for queue space as Submit does, a
// duplicate of a pending job is skipped, and ErrStopped ends the
// loop and is returned. Like Submit, it must never be called from a
// worker callback.
func (s *Service) SubmitAll(evs []monitor.SlowdownEvent) error {
	for _, ev := range evs {
		if err := s.Submit(ev); err != nil && err != ErrDuplicate {
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

// worker runs queued jobs in FIFO order until the service has stopped
// and its queue is empty.
func (s *Service) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		j, ok := s.next()
		if !ok {
			return
		}
		s.run(ctx, j)
	}
}

// next pops the oldest queued job, waiting while the queue is empty; it
// reports false once the service has stopped and the queue is empty.
// The pop shifts the queue down in place, so it never reallocates.
func (s *Service) next() (job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 {
		if s.stopped {
			return job{}, false
		}
		s.cond.Wait()
	}
	j := s.queue[0]
	n := copy(s.queue, s.queue[1:])
	s.queue[n] = job{}
	s.queue = s.queue[:n]
	s.cond.Broadcast()
	return j, true
}

// run executes one diagnosis job; the deferred finish releases its
// dedup reservation.
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
	wall := diagSpan.End(attr("outcome", "completed"), attr("query", j.ev.Query))
	s.tel.diagWall.Observe(wall.Seconds())
	s.spanModules(j.ev.TraceID, res.Trace)
	s.recordTrace(res.Trace)
	named := s.reg.Record(j.ev, res)
	s.completed.Add(1)
	s.tel.completed.Inc()
	if s.Self != nil {
		s.Self.ObserveDiagnosis(j.ev.Query, wall)
	}
	if s.OnDiagnosis != nil {
		s.OnDiagnosis(j.ev, res)
	}
	if s.OnHealthy != nil && res.Facts != nil && !named {
		s.OnHealthy(j.ev, res.Facts)
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
