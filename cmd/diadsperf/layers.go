package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	rtmetrics "runtime/metrics"
	"time"

	"diads"
	"diads/internal/api"
	"diads/internal/cache"
	"diads/internal/experiments"
	"diads/internal/fleet"
	"diads/internal/metrics"
	"diads/internal/monitor"
	"diads/internal/pipeline"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
)

// The traced pass. Each function below replays a workload's own input
// through one layer's public functions, a span around every call, and
// turns the spans into that layer's metrics. Nothing here feeds an
// end-to-end metric.

// spanTotals sums span self time by span name.
func spanTotals(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// spanDurations collects the durations of the spans with the name.
func spanDurations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.duration())
		}
	}
	return out
}

func p50(d []time.Duration) time.Duration { return quantile(sortedDurations(d), 0.5) }

// ---- api --------------------------------------------------------------

// Span names of the node replay, by step kind.
var (
	acceptSpan = [...]string{"Node.ServeHTTP events", "Node.ServeHTTP runs", "Node.ServeHTTP samples"}
	applySpan  = [...]string{"Node.Quiesce events", "Node.Quiesce runs", "Node.Quiesce samples"}
)

// replayNode pushes every step of the fixture through a fresh node's
// handler on an in-memory recorder (accept: decode + validate +
// enqueue), and settles the node after each one (apply: what the intake
// worker and everything behind it did for that batch). Steps go in
// posting order, one at a time, so the two never overlap.
func replayNode(rc runConfig, fx *fixture, o *outcome) error {
	node := api.New(api.Config{Seed: rc.seed})
	defer node.Shutdown()
	h := node.Handler()
	for _, p := range fx.schedule(1, 0)[0] {
		s := p.step
		parent := rc.trace.start("step", layerHarness, 0, p.tenant)
		req := httptest.NewRequest(http.MethodPost, stepRoute[s.kind], bytes.NewReader(s.body))
		rec := httptest.NewRecorder()
		sp := rc.trace.start(acceptSpan[s.kind], layerAPI, parent.id, p.tenant)
		h.ServeHTTP(rec, req)
		sp.end()
		o.check(rec.Code == http.StatusAccepted, "recorder POST %s: %d", stepRoute[s.kind], rec.Code)
		sp = rc.trace.start(applySpan[s.kind], layerAPI, parent.id, p.tenant)
		err := node.Quiesce()
		sp.end()
		parent.end()
		if err != nil {
			return fmt.Errorf("node replay: %w", err)
		}
	}
	return nil
}

// ---- metrics, monitor -------------------------------------------------

// innerReplay is what replaying the tenants through harness-owned
// stores, monitors and gates produced.
type innerReplay struct {
	released   []monitor.SlowdownEvent // tagged with the tenant, release order
	store      *metrics.Store          // tenant 0's store, filled by Append
	storeBytes float64                 // heap it holds
	pendingMax int
}

// replayInner feeds each tenant's day, step by step, to the layers
// below the API: Store.Append per sample, Monitor.Observe per run,
// Gate.Release per watermark.
func replayInner(fx *fixture, tr *tracer) *innerReplay {
	out := &innerReplay{}
	for ti, t := range fx.tenants {
		d := t.day
		var before uint64
		if ti == 0 {
			before = liveHeap()
		}
		store := metrics.NewStore()
		mon := monitor.New(monitor.Config{})
		gate := &monitor.Gate{}
		mon.SetSink(func(ev monitor.SlowdownEvent) {
			ev.Instance = t.name
			gate.Add(ev)
		})
		tenantSpan := tr.start("tenant", layerHarness, 0, ti)
		for _, p := range d.plan {
			switch p.kind {
			case stepRuns:
				sp := tr.start("Monitor.Observe", layerMonitor, tenantSpan.id, ti)
				for _, rec := range d.runs[p.lo:p.hi] {
					mon.Observe(rec)
				}
				sp.end()
				out.pendingMax = max(out.pendingMax, gate.Pending())
			case stepSamples:
				sp := tr.start("Store.Append", layerMetrics, tenantSpan.id, ti)
				for _, s := range d.samples[p.lo:p.hi] {
					// The samples come from a store that accepted them in
					// this order; a refusal is a harness bug.
					if err := store.Append(s.Component, metrics.Metric(s.Metric), metrics.Sample{T: simtime.Time(s.T), V: s.V}); err != nil {
						panic(err)
					}
				}
				sp.end()
				sp = tr.start("Gate.Release", layerMonitor, tenantSpan.id, ti)
				out.released = append(out.released, gate.Release(simtime.Time(p.at))...)
				sp.end()
			}
		}
		sp := tr.start("Monitor.LowWatermark", layerMonitor, tenantSpan.id, ti)
		mon.LowWatermark()
		sp.end()
		tenantSpan.end()
		if ti == 0 {
			out.store = store
			out.storeBytes = float64(liveHeap()) - float64(before)
		}
	}
	return out
}

// ---- service, pipeline, fleet learner ---------------------------------

// histDelta is the part of a default-registry histogram observed since
// an earlier snapshot.
func histDelta(before, after []telemetry.MetricSnapshot, name string) telemetry.HistogramSnapshot {
	find := func(snaps []telemetry.MetricSnapshot) *telemetry.HistogramSnapshot {
		for _, m := range snaps {
			if m.Name == name && len(m.Series) > 0 {
				return m.Series[0].Hist
			}
		}
		return nil
	}
	b, a := find(before), find(after)
	if a == nil {
		return telemetry.HistogramSnapshot{}
	}
	d := telemetry.HistogramSnapshot{Bounds: a.Bounds, Counts: append([]int64(nil), a.Counts...), Count: a.Count, Sum: a.Sum}
	if b != nil {
		for i := range d.Counts {
			d.Counts[i] -= b.Counts[i]
		}
		d.Count -= b.Count
		d.Sum -= b.Sum
	}
	return d
}

// replayService submits every released detection to a fresh service
// over the days' own simulated stores, in waves no larger than the
// queue, and waits the pool out. It returns the service for its stats.
func replayService(fx *fixture, released []monitor.SlowdownEvent, tr *tracer, o *outcome) *service.Service {
	svc := service.New(service.Env{}, service.Config{})
	for _, t := range fx.tenants {
		svc.AddInstance(t.name, diads.ServiceEnvFromTestbed(t.day.testbed))
	}
	svc.Start(context.Background())
	defer svc.Stop()
	const wave = 64 // the service's default queue depth
	drain := tr.start("drain", layerHarness, 0, 0)
	for lo := 0; lo < len(released); lo += wave {
		for i, ev := range released[lo:min(lo+wave, len(released))] {
			sp := tr.start("Service.Submit", layerService, drain.id, lo+i)
			err := svc.Submit(ev)
			sp.end()
			o.check(err == nil || errors.Is(err, service.ErrDuplicate), "service replay: submit: %v", err)
		}
		sp := tr.start("Service.Wait", layerService, drain.id, lo)
		svc.Wait()
		sp.end()
	}
	drain.end()
	return svc
}

// moduleNames is the diagnosis DAG in pipeline order.
var moduleNames = []string{"pd", "apg", "co", "da", "cr", "facts", "sd", "ia"}

// moduleMetrics reports the mean wall per diagnosis of each module.
func moduleMetrics(o *outcome, wall map[string]time.Duration, diagnoses int) {
	for _, name := range moduleNames {
		o.metrics["pipeline."+name+"_ms"] = ms(wall[name]) / float64(max(diagnoses, 1))
	}
}

func hitRatio(s cache.CacheStats) float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// ingestLayers is the traced pass of both ingest workloads. run is the
// traced loopback replay that just ended. On the healthy fixture no
// detection exists, and every service, pipeline and fleet number stays
// zero: the workload bypasses those layers.
func ingestLayers(rc runConfig, fx *fixture, run *ingestRun, o *outcome) error {
	nodeTotal, err := apiMetrics(rc, fx, run, o)
	if err != nil {
		return err
	}
	inner, layerTime := innerMetrics(rc, fx, o)
	storeMetrics(fx, inner, rc.trace, o)

	// service and pipeline: the node's own counters from the loopback run.
	st := run.svc
	o.metrics["service.submitted"] = float64(st.Submitted)
	o.metrics["service.completed"] = float64(st.Completed)
	o.metrics["service.deduped"] = float64(st.Deduped)
	o.metrics["service.rejected"] = float64(st.Rejected)
	o.metrics["service.failed"] = float64(st.Failed)
	o.metrics["service.apg_hit_ratio"] = hitRatio(st.APG)
	o.metrics["service.sd_hit_ratio"] = hitRatio(st.SD)
	walls := make(map[string]time.Duration)
	for _, m := range run.modules {
		walls[m.Module] = m.Wall
	}
	moduleMetrics(o, walls, int(st.Completed))
	if len(inner.released) > 0 {
		poolMetrics(rc, fx, inner.released, layerTime, o)
	}

	// The cost model: what the node spent on this evidence in all, and
	// how much of it each layer below the API accounts for when fed the
	// same evidence on its own. The API keeps the remainder.
	below := time.Duration(0)
	for _, l := range productLayers[1:] {
		below += layerTime[l]
	}
	layerTime[layerAPI] = max(0, nodeTotal-below)
	costShares(o, layerTime)
	return nil
}

// apiMetrics reports the api layer from the traced loopback run and the
// recorder replay, and returns everything the replayed node spent.
func apiMetrics(rc runConfig, fx *fixture, run *ingestRun, o *outcome) (time.Duration, error) {
	if err := replayNode(rc, fx, o); err != nil {
		return 0, err
	}
	spans := rc.trace.snapshot()
	total := spanTotals(spans)
	var nodeTotal time.Duration
	for kind, name := range []string{"events", "runs", "samples"} {
		o.metrics["api.accept_"+name+"_us"] = us(p50(spanDurations(spans, acceptSpan[kind])))
		if kind != int(stepEvents) {
			o.metrics["api.apply_"+name+"_us"] = us(p50(spanDurations(spans, applySpan[kind])))
		}
		nodeTotal += total[acceptSpan[kind]] + total[applySpan[kind]]
	}
	var bodyBytes int
	for _, t := range fx.tenants {
		for _, s := range t.steps {
			if s.kind == stepSamples {
				bodyBytes += len(s.body)
			}
		}
	}
	if d := total[acceptSpan[stepSamples]]; d > 0 {
		o.metrics["api.decode_mb_per_s"] = float64(bodyBytes) / mb / d.Seconds()
	}
	posts := sortedDurations(run.log.latency)
	o.metrics["api.post_p50_ms"] = ms(quantile(posts, 0.5))
	o.metrics["api.post_tail_ms"] = ms(quantile(posts, tailQuantile(len(posts))))
	o.metrics["api.http_overhead_us"] = us(quantile(posts, 0.5)) - o.metrics["api.accept_samples_us"]
	o.metrics["api.queue_depth_max"] = float64(run.log.depthMax)
	o.metrics["api.rejected_429"] = float64(run.log.retries)
	o.metrics["api.incidents_get_ms"] = ms(p50(run.getTook))
	if len(run.log.late) > 0 {
		o.metrics["gen.late_p95_ms"] = ms(quantile(sortedDurations(run.log.late), 0.95))
		o.metrics["gen.watch_resolution_us"] = us(run.watch)
	}
	return nodeTotal, nil
}

// innerMetrics reports the metrics and monitor layers from harness-owned
// stores, monitors and gates, and starts the cost model with their time.
func innerMetrics(rc runConfig, fx *fixture, o *outcome) (*innerReplay, map[layer]time.Duration) {
	inner := replayInner(fx, rc.trace)
	spans := rc.trace.snapshot()
	total := spanTotals(spans)
	var samples, runs int
	for _, t := range fx.tenants {
		samples += len(t.day.samples)
		runs += len(t.day.runs)
	}
	o.metrics["metrics.append_ns_per_sample"] = float64(total["Store.Append"]) / float64(max(samples, 1))
	o.metrics["metrics.bytes_per_sample"] = inner.storeBytes / float64(max(len(fx.tenants[0].day.samples), 1))
	o.metrics["monitor.observe_ns_per_run"] = float64(total["Monitor.Observe"]) / float64(max(runs, 1))
	o.metrics["monitor.events_minted"] = float64(len(inner.released))
	o.metrics["monitor.gate_release_us"] = us(p50(spanDurations(spans, "Gate.Release")))
	o.metrics["monitor.gate_pending_max"] = float64(inner.pendingMax)
	o.metrics["monitor.low_watermark_ns"] = float64(p50(spanDurations(spans, "Monitor.LowWatermark")))
	o.check(len(inner.released) == fx.expected, "inner replay minted %d detections, the fixture plans %d", len(inner.released), fx.expected)
	return inner, map[layer]time.Duration{
		layerMetrics: total["Store.Append"],
		layerMonitor: total["Monitor.Observe"] + total["Gate.Release"],
	}
}

// poolMetrics reports the service, the pipeline's share of it and the
// learner from a harness-owned pool, and adds their time to the cost
// model.
func poolMetrics(rc runConfig, fx *fixture, released []monitor.SlowdownEvent, layerTime map[layer]time.Duration, o *outcome) {
	before := telemetry.Default().Snapshot()
	svc := replayService(fx, released, rc.trace, o)
	after := telemetry.Default().Snapshot()
	total := spanTotals(rc.trace.snapshot())
	drain := total["Service.Submit"] + total["Service.Wait"]
	o.metrics["service.drain_ms_per_event"] = ms(drain) / float64(len(released))
	o.metrics["service.queue_wait_p50_ms"] = histDelta(before, after, "diads_service_queue_wait_seconds").Quantile(0.5) * 1e3
	diagWall := histDelta(before, after, "diads_service_diagnosis_wall_seconds")
	o.metrics["service.diag_wall_p50_ms"] = diagWall.Quantile(0.5) * 1e3
	var moduleWall time.Duration
	for _, m := range svc.ModuleStats() {
		moduleWall += m.Wall
	}
	// Modules of one diagnosis overlap (DA beside CR), and workers
	// overlap each other: split the pool's drain time between the
	// service and the pipeline by the modules' share of diagnosis wall.
	share := 1.0
	if diagWall.Sum > 0 {
		share = min(1, moduleWall.Seconds()/diagWall.Sum)
	}
	layerTime[layerPipeline] = time.Duration(float64(drain) * share)
	layerTime[layerService] = drain - layerTime[layerPipeline]

	// The API refreshes the learner once per diagnosis with every
	// incident; replay that at the final registry size.
	learner := fleet.NewLearner(fleet.LearnConfig{Review: fleet.ReviewOperator}, symptoms.Builtin())
	incidents := svc.Registry().Incidents()
	for i := range released {
		sp := rc.trace.start("Learner.Observe", layerFleet, 0, i)
		learner.Observe(incidents)
		sp.end()
	}
	spans := rc.trace.snapshot()
	o.metrics["fleet.learner_observe_us"] = us(p50(spanDurations(spans, "Learner.Observe")))
	layerTime[layerFleet] = spanTotals(spans)["Learner.Observe"]
}

// storeMetrics times the store's read and retention side on tenant 0's
// harness-filled store.
func storeMetrics(fx *fixture, inner *innerReplay, tr *tracer, o *outcome) {
	store := inner.store
	keys := store.Keys()
	windows := 0
	sp := tr.start("Store.WindowStats", layerMetrics, 0, 0)
	t0 := time.Now()
	for _, ev := range inner.released {
		if ev.Instance != fx.tenants[0].name {
			continue
		}
		for _, k := range keys {
			store.WindowStats(k.Component, k.Metric, ev.ReadWindow)
			windows++
		}
	}
	read := time.Since(t0)
	sp.end()
	if windows > 0 {
		o.metrics["metrics.window_stats_ns"] = float64(read) / float64(windows)
	}
	// Half the day: the horizon is a sample's own timestamp.
	day := fx.tenants[0].day
	half := simtime.Time(day.samples[len(day.samples)/2].T)
	sp = tr.start("Store.Truncate", layerMetrics, 0, 0)
	t0 = time.Now()
	store.Truncate(half)
	o.metrics["metrics.truncate_ms"] = ms(time.Since(t0))
	sp.end()
	o.metrics["metrics.samples_live_end"] = float64(store.Len())
}

// costShares reports each layer's share of the summed layer time.
func costShares(o *outcome, layerTime map[layer]time.Duration) {
	var sum time.Duration
	for _, d := range layerTime {
		sum += d
	}
	if sum == 0 {
		return
	}
	for l, d := range layerTime {
		o.metrics["share."+string(l)+"_pct"] = 100 * float64(d) / float64(sum)
	}
}

// ---- diagnose-batch ---------------------------------------------------

// diagTrace is one cold diagnosis's wall beside its module trace.
type diagTrace struct {
	wall  time.Duration
	trace *pipeline.Trace
}

// criticalPath is the module chain a diagnosis cannot be shorter than:
// DA and CR run side by side, everything else in sequence.
func criticalPath(t *pipeline.Trace) time.Duration {
	wall := func(name string) time.Duration {
		if m := t.Module(name); m != nil {
			return m.Wall
		}
		return 0
	}
	return wall("pd") + wall("apg") + wall("co") + max(wall("da"), wall("cr")) +
		wall("facts") + wall("sd") + wall("ia")
}

// diagnoseLayers breaks the cold diagnoses down by module and by
// scenario, and times the same inputs with shared APG/SD caches.
func diagnoseLayers(scs []*diads.Scenario, perScenario [][]time.Duration, traces []diagTrace, o *outcome) error {
	walls := make(map[string]time.Duration)
	var overhead time.Duration
	for _, dt := range traces {
		for _, m := range dt.trace.Modules {
			walls[m.Module] += m.Wall
		}
		overhead += dt.wall - criticalPath(dt.trace)
	}
	moduleMetrics(o, walls, len(traces))
	o.metrics["pipeline.sched_overhead_ms"] = ms(overhead) / float64(max(len(traces), 1))
	for i, sc := range scs {
		o.metrics[fmt.Sprintf("diag.s%d_ms", sc.ID)] = ms(p50(perScenario[i]))
	}
	o.metrics["diag.allocs_per_diagnosis"] = o.metrics["allocs_per_op"]

	// Warm: the same inputs behind caches a service would share.
	apgs := cache.New[string, *diads.APG](32)
	sds := cache.New[string, []diads.CauseInstance](128)
	var warm []time.Duration
	for _, sc := range scs {
		in := *sc.Input
		in.APGCache, in.SDCache = apgs, sds
		for i := 0; i < 12; i++ {
			t0 := time.Now()
			if _, err := diads.Diagnose(&in); err != nil {
				return fmt.Errorf("cached diagnosis of scenario %d: %w", sc.ID, err)
			}
			if i >= 2 { // the first fills the caches
				warm = append(warm, time.Since(t0))
			}
		}
	}
	o.metrics["diag.cached_ms"] = ms(p50(warm))
	o.metrics["share.pipeline_pct"] = 100
	return nil
}

// ---- fleet-sim --------------------------------------------------------

// Mirrors of the fleet builder's unexported layout constants: instance i
// is seeded Seed + i*stride and starts i*stagger late.
const (
	fleetSeedStride = 1_000_003
	fleetStagger    = 3 * simtime.Minute
)

// fleetLayers simulates the fleet's instances standalone — the rig's
// part of a fleet repetition — and reports the learning loop's outcome.
// fleetCPU is the mean CPU time of one repetition: the fleet simulates
// its instances in parallel, so the rig's share is taken in CPU time,
// not wall.
func fleetLayers(rc runConfig, spec experiments.FleetSpec, fleetCPU time.Duration, learn fleet.LearnStats, o *outcome) error {
	sp := rc.trace.start("Testbed.Simulate", layerRig, 0, 0)
	u0 := readUsage()
	for i := 0; i < spec.Instances; i++ {
		env, err := experiments.BuildOnline(experiments.OnlineSpec{
			Seed:    spec.Seed + int64(i)*fleetSeedStride,
			Runs:    spec.Runs,
			Offset:  simtime.Duration(i) * fleetStagger,
			NoFault: i >= spec.Degraded,
		})
		if err != nil {
			return fmt.Errorf("standalone instance %d: %w", i, err)
		}
		if err := env.Testbed.Simulate(); err != nil {
			return fmt.Errorf("standalone instance %d: %w", i, err)
		}
	}
	sim := readUsage().since(u0)
	sp.end()
	o.metrics["testbed.simulate_s"] = sim.wall.Seconds()
	share := max(0, 1-sim.cpu.Seconds()/fleetCPU.Seconds())
	o.metrics["fleet.product_share"] = share
	o.metrics["fleet.installed"] = float64(len(learn.Installed))
	o.metrics["fleet.validated"] = float64(len(learn.Pending))
	o.metrics["fleet.rejected"] = float64(len(learn.Rejected))
	o.metrics["share.fleet_pct"] = 100 * share
	o.metrics["share.testbed_pct"] = 100 * (1 - share)
	return nil
}

// ---- runtime ----------------------------------------------------------

// heapSampler tracks the live-heap high-water mark at 10 ms resolution.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func sampleHeap() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		s := []rtmetrics.Sample{{Name: heapObjects}}
		for {
			rtmetrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	return float64(h.peak) / mb
}
