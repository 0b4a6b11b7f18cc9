// Package api is diadsd's serving surface: an HTTP subsystem that lets
// a real system — not just the built-in simulator — feed the DIADS
// pipeline and read its verdicts. It exposes three route families on
// the telemetry listener:
//
//   - ingest: POST /v1/ingest/samples, /v1/ingest/runs, and
//     /v1/ingest/events accept batched monitoring data scoped to a
//     (tenant, instance) pair. Runs flow through a per-instance
//     monitor exactly like simulator output; samples land in the
//     instance's metrics store and advance its ingest watermark, which
//     releases gated detections into the shared diagnosis pool; events
//     change the instance's topology, catalog, parameters and
//     statistics and land in the change log. A change takes effect at
//     its own time T, not when it is posted: it applies once the
//     instance's evidence reaches T — before the first posted run that
//     starts at or after T is planned, or when the watermark reaches T.
//     So posting order does not matter for a change posted ahead of its
//     time, and each run is planned under the state as of its start as
//     long as no change arrives after a run that starts later.
//   - query: GET /v1/incidents, /v1/incidents/{id}, /v1/candidates,
//     and /v1/modules render the same snapshots the console panels
//     use — the ranked incident registry, the symptom-learning
//     candidate lifecycle, and per-module workflow timings.
//   - operator: POST /v1/candidates/{kind}/ack and .../reject settle
//     validated mined-symptom candidates, the ack the ReviewOperator
//     policy waits for.
//
// Each ingest request applies its own batch, holding its instance's
// lock, before it answers: a 202 means the batch is applied. Batches of
// one (tenant, instance) therefore apply one at a time, in the order
// they reach the lock — a client that posts runs and then the samples
// whose watermark releases them gets exactly that order — while other
// instances apply in parallel. Load is refused at the door, never
// dropped behind it: at most QueueDepth batches may be admitted and not
// yet applied, and the next answers 429 with Retry-After rather than
// blocking or buffering unboundedly — the snowball regime where the
// diagnoser's own slowdown amplifies load is exactly what the paper's
// monitor exists to catch. A batch whose detections find the diagnosis
// pool's queue full waits for space, holding its instance's lock and its
// admission slot, so a saturated pool reaches clients as 429s.
package api

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diads/internal/diag"
	"diads/internal/fleet"
	"diads/internal/metrics"
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
	"diads/internal/testbed"
	"diads/internal/topology"
)

// Config tunes the serving node.
type Config struct {
	// Seed drives tenant-environment construction (each tenant instance
	// gets a Figure 1 topology and catalog built from it, with an empty
	// metrics store the tenant fills by posting samples).
	Seed int64
	// QueueDepth bounds the ingest batches admitted and not yet applied
	// (default 64, the diagnosis pool's own default); one more is
	// answered 429.
	QueueDepth int
	// Timeout bounds each request: its body must arrive and its reply
	// be sent within Timeout of its start (default 10s).
	Timeout time.Duration
	// Service tunes the shared diagnosis pool.
	Service service.Config
	// SymDB is the shared symptoms database (nil means the built-in
	// expert entries). Mined installs land here, so pass the same DB
	// that -learned persistence renders.
	SymDB *symptoms.DB
	// IdleBatches is the idle horizon of the instance lifecycle: an
	// instance untouched by this many subsequently-applied ingest
	// batches (and with no gated detections) is evicted — its serving
	// environment, metric store, and monitor baselines page out, and a
	// returning tenant rebuilds from scratch on next contact. The
	// horizon is counted in admitted batches, not wall time, so for a
	// client that posts one batch at a time eviction is a deterministic
	// function of the ingest stream. 0 disables
	// eviction (the pre-lifecycle behavior: instances accrete forever,
	// which under tenant churn is a leak). Registry incidents survive
	// eviction; only ingest state pages out, and with it any posted
	// change whose time the instance's evidence had not reached yet.
	IdleBatches int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.SymDB == nil {
		c.SymDB = symptoms.Builtin()
	}
	return c
}

// instance is the per-(tenant, instance) serving state: the instance
// runtime (ID: the scoped "tenant/instance") over a Figure 1 environment
// whose store is filled by posted samples and a monitor fed by posted
// runs, plus what only ingest knows.
type instance struct {
	fleet.Instance
	// mu is held by the handler applying a batch to the instance, and by
	// the idle sweep evicting it; it guards the embedded runtime's
	// mutable parts and every field below but lastSeq.
	mu sync.Mutex
	// gone marks an instance the idle sweep evicted: a handler that
	// finds it set fetches the instance afresh.
	gone bool
	// watermark is the instance's ingest watermark: every sample with
	// T <= watermark has been posted.
	watermark simtime.Time
	// lastSeq is the sequence number of the last batch that fetched the
	// instance — the idle-eviction clock. Node.mu guards it.
	lastSeq int64
	// pending holds posted changes whose T the instance's evidence has
	// not reached, in time order (see applyChanges).
	pending []topology.Event
}

// Node is the serving node: the shared diagnosis service, the learner
// behind the operator routes and the per-instance ingest state.
// Construct with New, attach to a telemetry server with Mount (or drive
// Handler directly in tests), and Shutdown to drain.
type Node struct {
	cfg     Config
	svc     *service.Service
	learner *fleet.Learner

	mu        sync.Mutex
	instances map[instanceKey]*instance

	// batchSeq counts admitted ingest batches, the evidence-free clock
	// idle eviction runs on.
	batchSeq atomic.Int64
	// waiting counts batches admitted and not yet applied, which
	// QueueDepth bounds.
	waiting atomic.Int64
	// applyMu is held for reading by every batch from its draining check
	// until it is applied; Shutdown raises draining and then takes it
	// for writing, so no batch is mid-apply once it has it.
	applyMu  sync.RWMutex
	draining atomic.Bool
	ingested atomic.Bool // any watermark advanced yet (readiness)

	traceSeq atomic.Int64

	tel nodeTelemetry
}

// nodeTelemetry is the api layer's instrument set on the default
// registry — the diads_api_* families TestEndToEndIngestDiagnosis checks.
type nodeTelemetry struct {
	reg      *telemetry.Registry
	batches  *telemetry.Counter
	rejected map[string]*telemetry.Counter
	applyErr *telemetry.Counter
	released *telemetry.Counter
	evicted  *telemetry.Counter
	mismatch *telemetry.Counter
	// freeze detaches the scrape callbacks from the node (see
	// telemetry.Registry.CounterFunc); Shutdown calls them.
	freeze []func()
}

func newNodeTelemetry(n *Node) nodeTelemetry {
	reg := telemetry.Default()
	rejected := func(reason string) *telemetry.Counter {
		return reg.Counter("diads_api_ingest_rejected_total",
			"Ingest batches shed, by reason.",
			telemetry.Labels{"reason": reason})
	}
	return nodeTelemetry{
		reg: reg,
		freeze: []func(){
			reg.GaugeFunc("diads_api_ingest_queue_depth",
				"Ingest batches admitted and not yet applied.",
				nil, func() float64 { return float64(n.waiting.Load()) }),
			reg.GaugeFunc("diads_api_instances_resident",
				"Tenant instances currently resident (serving state built, not evicted).",
				nil, func() float64 { return float64(n.InstanceCount()) }),
			reg.GaugeFunc("diads_api_gated_detections",
				"Detections resident instances hold until their evidence covers the read window.",
				nil, func() float64 { return float64(n.gatedDetections()) }),
		},
		batches: reg.Counter("diads_api_ingest_batches_total",
			"Ingest batches applied and answered 202.", nil),
		rejected: map[string]*telemetry.Counter{
			reasonBackpressure: rejected(reasonBackpressure),
			reasonDraining:     rejected(reasonDraining),
			reasonTooLarge:     rejected(reasonTooLarge),
		},
		applyErr: reg.Counter("diads_api_ingest_errors_total",
			"Ingest batch items that could not be applied.", nil),
		released: reg.Counter("diads_api_events_released_total",
			"Gated slowdown events released to the diagnosis pool by watermark advances.", nil),
		evicted: reg.Counter("diads_api_instances_evicted_total",
			"Tenant instances paged out by the idle-eviction lifecycle.", nil),
		mismatch: reg.Counter("diads_api_plan_mismatch_total",
			"Posted runs applied although an operator's type, table or estimate disagrees with the plan the node reconstructed.", nil),
	}
}

const (
	reasonBackpressure = "backpressure"
	reasonDraining     = "draining"
	reasonTooLarge     = "too_large"
)

// New builds the node and starts its diagnosis pool.
// Each instance's slowdown detector runs with the monitor defaults. The
// operator routes settle validated candidates, so the learner holds
// them for an ack over HTTP (ReviewOperator, no Reviewer).
func New(cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:       cfg,
		learner:   fleet.NewLearner(fleet.LearnConfig{Review: fleet.ReviewOperator}, cfg.SymDB),
		instances: make(map[instanceKey]*instance),
	}
	n.tel = newNodeTelemetry(n)
	n.svc = service.New(service.Env{}, cfg.Service)
	// The candidate lifecycle hangs off the diagnosis pool: every
	// completed diagnosis steps the learner with the incident it filed
	// (only a diagnosis changes an incident, so no other can have become
	// confirmed), every healthy diagnosis grows its background corpus —
	// the fleet's epoch-exchange flow, minus the epochs (the serving
	// surface has no global evidence clock; the Learner's own mutex
	// keeps it consistent).
	n.svc.OnDiagnosis = func(ev monitor.SlowdownEvent, res *diag.Result) {
		n.learner.Observe(n.svc.Registry().FiledBy(ev, res))
	}
	n.svc.OnHealthy = func(_ monitor.SlowdownEvent, fb *symptoms.FactBase) {
		n.learner.AddHealthy(fb)
	}
	n.svc.Start(context.Background())
	return n
}

// Service exposes the diagnosis pool (for Wait in drivers and tests).
func (n *Node) Service() *service.Service { return n.svc }

// Learner exposes the candidate lifecycle (for -learned persistence).
func (n *Node) Learner() *fleet.Learner { return n.learner }

// Ready implements the /readyz contract: ready once any instance's
// ingest watermark has advanced, and never while draining.
func (n *Node) Ready() (bool, string) {
	if n.draining.Load() {
		return false, "draining"
	}
	if !n.ingested.Load() {
		return false, "no ingest watermark yet"
	}
	return true, ""
}

// Mount attaches the /v1/ route tree and readiness probe to the
// telemetry server.
func (n *Node) Mount(srv *telemetry.Server) {
	srv.Mount("/v1/", n.Handler())
	srv.SetReady(n.Ready)
}

// Shutdown drains the node: ingest starts answering 503, the batches
// mid-apply finish, and in-flight diagnoses complete. The diagnosis pool
// stays Submittable throughout (events released by the final batches
// still diagnose); it is stopped at the end.
func (n *Node) Shutdown() {
	if n.draining.Swap(true) {
		return
	}
	n.applyMu.Lock()
	n.applyMu.Unlock()
	n.svc.Wait()
	n.svc.Stop()
	for _, freeze := range n.tel.freeze {
		freeze()
	}
}

// Quiesce blocks until every diagnosis the batches applied so far
// triggered has completed — the deterministic settle point tests and
// the example client use instead of polling. A 202 means its batch is
// applied, so only the pool is waited on; draining is an error.
func (n *Node) Quiesce() error {
	if n.draining.Load() {
		return errDraining
	}
	n.svc.Wait()
	return nil
}

var (
	errBackpressure = fmt.Errorf("api: intake queue full")
	errDraining     = fmt.Errorf("api: draining")
)

// apply admits a batch unless the node is draining or QueueDepth
// batches are admitted and not yet applied, runs f on the batch's
// instance, locked, and then the idle sweep. It returns how many
// batches were admitted and not yet applied, this one included, when
// it was admitted.
func (n *Node) apply(tenant, inst string, f func(*instance)) (int, error) {
	n.applyMu.RLock()
	defer n.applyMu.RUnlock()
	if n.draining.Load() {
		return 0, errDraining
	}
	depth := n.waiting.Add(1)
	defer n.waiting.Add(-1)
	if depth > int64(n.cfg.QueueDepth) {
		return 0, errBackpressure
	}
	if in, err := n.acquire(tenant, inst, n.batchSeq.Add(1)); err != nil {
		n.tel.applyErr.Inc()
	} else {
		f(in)
		in.mu.Unlock()
	}
	n.sweepIdle()
	return int(depth), nil
}

// acquire returns the scoped instance, locked, fetching it afresh when
// the idle sweep evicted the one it found before it got the lock.
func (n *Node) acquire(tenant, inst string, seq int64) (*instance, error) {
	for {
		in, err := n.instanceFor(tenant, inst, seq)
		if err != nil {
			return nil, err
		}
		in.mu.Lock()
		if !in.gone {
			return in, nil
		}
		in.mu.Unlock()
	}
}

// sweepIdle evicts instances the idle horizon has passed: untouched for
// IdleBatches admitted batches, not being applied to (their lock is
// free) and holding no gated detections. It runs after every applied
// batch, under Node.mu, so no handler fetches an instance meanwhile.
// Each victim's diagnoses are settled first (WaitInstance; its lock,
// held, keeps new ones out) so none loses its environment mid-flight;
// eviction then detaches the instance from the shared service, marks it
// gone for a handler already holding it, and drops the serving state for
// the garbage collector.
func (n *Node) sweepIdle() {
	h := int64(n.cfg.IdleBatches)
	if h <= 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.batchSeq.Load()
	var victims []*instance
	for _, in := range n.instances {
		if now-in.lastSeq < h || !in.mu.TryLock() {
			continue
		}
		if in.Monitor.Pending() == 0 {
			victims = append(victims, in)
		} else {
			in.mu.Unlock()
		}
	}
	if len(victims) == 0 {
		return
	}
	for _, in := range victims {
		n.svc.WaitInstance(in.ID)
		n.evict(in)
		in.mu.Unlock()
	}
}

// evict detaches in from the service, marks it gone and drops it from
// the node. The caller holds Node.mu and in.mu, and no diagnosis of in
// is queued or running.
func (n *Node) evict(in *instance) {
	in.Detach(n.svc)
	in.gone = true
	delete(n.instances, keyOfID(in.ID))
	n.tel.evicted.Inc()
}

// InstanceCount reports the resident tenant instances — the bound the
// idle lifecycle maintains under churn.
func (n *Node) InstanceCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.instances)
}

// gatedDetections sums Monitor.Pending over the resident instances. It
// holds Node.mu, not the instances' locks (a batch waiting for pool
// space holds its instance's), and reads each gate under the gate's own
// mutex, the order sweepIdle takes them in.
func (n *Node) gatedDetections() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, in := range n.instances {
		total += in.Monitor.Pending()
	}
	return total
}

// instanceKey identifies a resident instance by its scoped ID's two
// halves, so a posted (tenant, instance) pair finds its instance
// without building the ID.
type instanceKey struct{ tenant, instance string }

// keyOf returns the key of fleet.ScopedInstance(tenant, inst). A tenant
// that is empty or holds the separator can name the same ID as another
// pair, so only then is the ID built and split.
func keyOf(tenant, inst string) instanceKey {
	if tenant != "" && strings.IndexByte(tenant, '/') < 0 {
		return instanceKey{tenant, inst}
	}
	return keyOfID(fleet.ScopedInstance(tenant, inst))
}

// keyOfID splits a scoped ID at its first separator. An ID with none,
// or with one in front, is the instance part alone: ScopedInstance
// gives it only to an empty tenant.
func keyOfID(id string) instanceKey {
	if i := strings.IndexByte(id, '/'); i > 0 {
		return instanceKey{id[:i], id[i+1:]}
	}
	return instanceKey{"", id}
}

// instanceFor returns (building on first contact) the serving state for
// the scoped instance and restarts its idle clock at seq.
func (n *Node) instanceFor(tenant, inst string, seq int64) (*instance, error) {
	key := keyOf(tenant, inst)
	n.mu.Lock()
	defer n.mu.Unlock()
	if in := n.instances[key]; in != nil {
		in.lastSeq = max(in.lastSeq, seq)
		return in, nil
	}
	id := fleet.ScopedInstance(tenant, inst)
	tb, err := testbed.NewFigure1(n.cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("api: building environment for %s: %w", id, err)
	}
	in := &instance{
		Instance: fleet.Instance{ID: id, Testbed: tb, Monitor: monitor.New(monitor.Config{})},
		lastSeq:  seq,
	}
	in.Attach(n.svc, n.cfg.SymDB)
	n.instances[key] = in
	return in, nil
}

// applySamples lands a sample batch in the instance's store and
// advances its watermark, releasing any gated detections it covers.
func (n *Node) applySamples(in *instance, b *SampleBatch, traceID string) {
	// Sort by time so interleaved series in one batch cannot trip the
	// store's per-series ordering check. Agents post in time order, so
	// the sort itself is the rare case.
	byTime := func(x, y WireSample) int { return cmp.Compare(x.T, y.T) }
	if !slices.IsSortedFunc(b.Samples, byTime) {
		slices.SortStableFunc(b.Samples, byTime)
	}
	high := n.appendSamples(in.Testbed.Store, b.Samples, in.watermark)
	if b.Watermark != nil && simtime.Time(*b.Watermark) > high {
		high = simtime.Time(*b.Watermark)
	}
	if high > in.watermark {
		in.watermark = high
		n.ingested.Store(true)
		n.applyChanges(in, high)
		n.release(in, traceID)
	}
}

// appendSamples writes samples to store in one batch, each accepted or
// refused on its own, and returns the latest accepted time or high if
// that is later.
func (n *Node) appendSamples(store *metrics.Store, samples []WireSample, high simtime.Time) simtime.Time {
	wr := store.Batch()
	defer wr.Close()
	for i := range samples {
		s := &samples[i]
		err := wr.Append(s.Component, metrics.Metric(s.Metric),
			metrics.Sample{T: simtime.Time(s.T), V: s.V})
		if err != nil {
			n.tel.applyErr.Inc()
			continue
		}
		if simtime.Time(s.T) > high {
			high = simtime.Time(s.T)
		}
	}
	return high
}

// release submits every held detection the watermark now covers, under
// the service's one submit policy, then truncates the instance's
// evidence behind whatever the pool still has to read.
func (n *Node) release(in *instance, traceID string) {
	released := in.Release(in.watermark)
	for i := range released {
		n.tel.released.Inc()
		telemetry.DefaultTracer().Record(telemetry.Span{
			TraceID: released[i].TraceID, Name: "api.ingest.release",
			Start: time.Now(),
			Attrs: []telemetry.Attr{
				{Key: "instance", Value: in.ID},
				{Key: "request", Value: traceID},
			},
		})
	}
	if err := n.svc.SubmitAll(released); err != nil {
		n.tel.applyErr.Inc()
	}
	in.Retain(n.svc)
}

// applyRuns replays a run batch through the instance's monitor. The
// run's plan is reconstructed with the instance's own optimizer, under
// the state as of the run's start (the changes due by then applied
// first, as the simulator applies a change before a run that starts at
// its time) — deterministic, so node IDs match a client compiled against
// the same catalog — whose memo plans each query once per catalog,
// parameter and statistics version. A run whose posted operators
// disagree with that plan is counted and applied all the same.
func (n *Node) applyRuns(in *instance, b *RunBatch) {
	tb := in.Testbed
	for i := range b.Runs {
		wr := &b.Runs[i]
		n.applyChanges(in, simtime.Time(wr.Start))
		p, err := tb.Opt.PlanQuery(wr.Query, tb.Stats, tb.Params)
		if err != nil {
			n.tel.applyErr.Inc()
			continue
		}
		if !wr.matchesPlan(p) {
			n.tel.mismatch.Inc()
		}
		in.Monitor.Observe(wr.runRecord(p))
	}
}

// applyEvents queues each posted change in time order; those the
// instance's watermark has already reached apply at once.
func (n *Node) applyEvents(in *instance, b *EventBatch) {
	for i := range b.Events {
		in.pending = append(in.pending, b.Events[i].event())
	}
	slices.SortStableFunc(in.pending, func(x, y topology.Event) int { return cmp.Compare(x.T, y.T) })
	n.applyChanges(in, in.watermark)
}

// applyChanges applies, through testbed.Apply, every pending change due
// by now; a change that cannot apply is counted, not logged. The
// instance's state changes only between its diagnoses, as in the fleet:
// a due change first waits until no diagnosis of the instance is
// waiting, queued or running. The caller holds the instance's lock, so
// no new one is submitted meanwhile. A new statistics snapshot
// re-registers the instance's diagnosis environment, which holds the
// snapshot it was registered with, so diagnoses and applyRuns plan under
// the same statistics.
func (n *Node) applyChanges(in *instance, now simtime.Time) {
	if len(in.pending) == 0 || in.pending[0].T > now {
		return
	}
	n.svc.WaitInstance(in.ID)
	k, restat := 0, false
	for ; k < len(in.pending) && in.pending[k].T <= now; k++ {
		ev := in.pending[k]
		if err := in.Testbed.Apply(ev); err != nil {
			n.tel.applyErr.Inc()
			continue
		}
		restat = restat || ev.Kind == topology.EvStatsUpdated
	}
	// Shift the rest down so the array keeps no applied change.
	in.pending = slices.Delete(in.pending, 0, k)
	if restat {
		n.svc.AddInstance(in.ID, fleet.EnvOf(in.Testbed, n.cfg.SymDB))
	}
}

// nextTraceID mints a request trace ID. Sequential, not random: the
// serving surface must introduce no entropy a diagnosis could pick up.
func (n *Node) nextTraceID() string {
	return "api/req-" + strconv.FormatInt(n.traceSeq.Add(1), 10)
}
