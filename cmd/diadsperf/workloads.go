package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"diads"
	"diads/internal/api"
	"diads/internal/experiments"
	"diads/internal/fleet"
	"diads/internal/service"
	"diads/internal/symptoms"
	"diads/internal/testbed"
)

// Workload names are normative: BENCHMARK.json, the README and the
// driver all use them.
const (
	wlIngestHealthy = "ingest-healthy"
	wlIngestPaced   = "ingest-incident-paced"
	wlDiagnoseBatch = "diagnose-batch"
	wlFleetSim      = "fleet-sim"
)

// pacedRate is the open loop's fixed evidence rate, items per second.
// On the reference box that is about a tenth of the closed-loop ingest
// capacity (ingest-healthy's ops_per_s) and, with the diagnoses it sets
// off, about a quarter of the two cores. It is a constant, never
// calibrated at run time, or a regression would lower its own bar.
const pacedRate = 60_000

// dayItems is the evidence a 24 h instance-day carries (samples + runs +
// events), used only to size the paced fixture to the run length.
const dayItems = 40_000

// sizes fixes how much work a run does. The product's behaviour is
// never a size: these select inputs only.
type sizes struct {
	setups    int // set-up repetitions; setup_s is their median
	dayRuns   int // Q2 runs per instance-day (48 = 24 h)
	healthy   int // tenants per ingest-healthy cycle, one distinct day each
	pacedDays int // distinct faulty days the paced tenants fan out from
	// pacedTenants overrides the tenant count the run length implies.
	pacedTenants int
	fleet        experiments.FleetSpec
	scenarios    []diads.ScenarioID
	// maxRounds caps cycles, rounds and repetitions (0 = until the time
	// is up); the smoke test uses it.
	maxRounds int
}

func fullSizes(nproc int) sizes {
	return sizes{
		setups:    3,
		dayRuns:   48,
		healthy:   8,
		pacedDays: 6,
		fleet: experiments.FleetSpec{
			Instances: 32, Degraded: 24, Runs: 12, Shards: 2,
			MaxStreams: nproc, Retention: true, ResidentCap: 8,
		},
		scenarios: allScenarios(),
	}
}

func allScenarios() []diads.ScenarioID {
	return []diads.ScenarioID{
		diads.ScenarioSANMisconfig, diads.ScenarioTwoPools, diads.ScenarioDataProperty,
		diads.ScenarioConcurrentFaults, diads.ScenarioLockingNoise, diads.ScenarioPlanRegression,
		diads.ScenarioCPUSaturation, diads.ScenarioDiskFailure, diads.ScenarioRAIDRebuild,
	}
}

// runConfig is one benchmark run.
type runConfig struct {
	seed    int64
	seconds time.Duration
	nproc   int
	size    sizes
	trace   *tracer // nil: tracing off (the runs that report end-to-end metrics)
}

// outcome is what a run measured and verified.
type outcome struct {
	attempted int
	failed    int
	failures  []string           // first few failure messages, for the operator
	metrics   map[string]float64 // by metric name
	notes     []string           // sample counts, fixture hash, ...
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64)}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// repeatSetup builds the workload's input several times and reports the
// median build time with the last build: a later change that moves work
// into set-up shows here. A short set-up is repeated further, up to nine
// times, until it has been given setupFloor in all, so that its median
// is no noisier than a long one's.
func repeatSetup[T any](times int, build func() (T, error)) (T, float64, error) {
	var last T
	var took []float64
	for start := time.Now(); len(took) < max(times, 1) ||
		(times > 1 && len(took) < 9 && time.Since(start) < setupFloor); {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
		last = v
	}
	return last, median(took), nil
}

const setupFloor = 2 * time.Second

// timeLeft reports whether another unit of work of the last unit's size
// still fits the run.
func timeLeft(start time.Time, last time.Duration, budget time.Duration) bool {
	return time.Since(start)+last/2 < budget
}

// ---- ingest workloads -------------------------------------------------

// ingestRun is one replay of a fixture over loopback HTTP into a fresh
// serving node.
type ingestRun struct {
	cost     cost // first POST to Quiesce return
	log      *postLog
	heapLive float64 // MB the node retains at Quiesce
	svc      service.Stats
	modules  []service.ModuleStat
	lag      []time.Duration // per released detection (paced only)
	watch    time.Duration   // watcher period achieved (paced only)
	getTook  []time.Duration // GET /v1/incidents?tenant= wall
}

// replayHTTP posts the fixture into a fresh node and verifies what the
// node then reports. paced selects the open loop on one connection.
//
// base is the live heap before the run's first node existed. It is not
// re-read per cycle: the telemetry registry's scrape callbacks keep the
// previous node reachable until the next api.New replaces them.
func replayHTTP(rc runConfig, fx *fixture, paced bool, base uint64, o *outcome) (*ingestRun, error) {
	conns, skew := connections(rc.nproc), 0.0
	if paced {
		conns, skew = 1, q2Period/float64(len(fx.tenants))
	}
	sched := fx.schedule(conns, skew)

	node := api.New(api.Config{Seed: rc.seed})
	srv := httptest.NewServer(node.Handler())
	client := newClient(conns)
	defer func() {
		client.CloseIdleConnections()
		srv.Close()
		node.Shutdown()
	}()

	run := &ingestRun{}
	var w *watcher
	if paced {
		w = watchSettled(node.Service())
	}
	u0 := readUsage()
	if paced {
		run.log = openLoop(client, srv.URL, sched[0], dueTimes(sched[0], pacedRate), rc.trace)
	} else {
		run.log = closedLoop(client, srv.URL, sched, rc.trace)
	}
	qs := rc.trace.start("Node.Quiesce", layerAPI, 0, 0)
	err := node.Quiesce()
	qs.end()
	u1 := readUsage()
	var settled []time.Time
	if w != nil {
		settled = w.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("quiesce: %w", err)
	}
	run.cost = u1.since(u0)
	run.cost.wall = u1.at.Sub(run.log.first)

	for _, e := range run.log.failed {
		o.check(false, "%v", e)
	}
	o.attempted += len(run.log.latency) - len(run.log.failed)

	if w != nil {
		run.watch = w.period()
		var due []time.Time
		for i, p := range sched[0] {
			for r := 0; r < p.step.releases; r++ {
				due = append(due, run.log.due[i])
			}
		}
		for j := 0; j < min(len(due), len(settled)); j++ {
			run.lag = append(run.lag, settled[j].Sub(due[j]))
		}
	}

	// What the node now reports must be what the evidence implies.
	run.svc = node.Service().Stats()
	run.modules = node.Service().ModuleStats()
	st := run.svc
	o.check(int(st.Submitted) == fx.expected,
		"service submitted %d events, the fixture releases %d", st.Submitted, fx.expected)
	o.check(st.Submitted == st.Completed+st.Failed+st.Deduped+st.Rejected && st.Failed == 0,
		"service counts do not settle: %s", st)
	for _, t := range fx.tenants {
		t0 := time.Now()
		incs, err := getIncidents(client, srv.URL, t.name)
		run.getTook = append(run.getTook, time.Since(t0))
		if err != nil {
			o.check(false, "GET incidents for %s: %v", t.name, err)
			continue
		}
		if !t.day.faulty {
			o.check(len(incs) == 0, "healthy %s shows %d incidents", t.name, len(incs))
			continue
		}
		found := false
		for _, inc := range incs {
			if inc.Kind == symptoms.CauseSANMisconfig && inc.Subject == string(testbed.VolV1) &&
				inc.Tenant == t.name && inc.Instance == tenantInstance {
				found = true
			}
		}
		o.check(found, "faulty %s shows no %s incident on %s", t.name, symptoms.CauseSANMisconfig, testbed.VolV1)
	}

	run.heapLive = (float64(liveHeap()) - float64(base)) / mb
	runtime.KeepAlive(node)
	return run, nil
}

func getIncidents(client *http.Client, base, tenant string) ([]api.IncidentView, error) {
	resp, err := client.Get(base + "/v1/incidents?tenant=" + tenant)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var list struct {
		Incidents []api.IncidentView `json:"incidents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return list.Incidents, nil
}

// watcher polls the service's settled count so each detection's
// settling instant is known to within its period.
type watcher struct {
	svc     *service.Service
	quit    chan struct{}
	done    chan struct{}
	settled []time.Time
	polls   int
	began   time.Time
	ended   time.Time
}

const watchEvery = 250 * time.Microsecond

func watchSettled(svc *service.Service) *watcher {
	w := &watcher{svc: svc, quit: make(chan struct{}), done: make(chan struct{}), began: time.Now()}
	go func() {
		defer close(w.done)
		for {
			select {
			case <-w.quit:
				w.poll()
				w.ended = time.Now()
				return
			default:
			}
			w.poll()
			time.Sleep(watchEvery)
		}
	}()
	return w
}

func (w *watcher) poll() {
	st := w.svc.Stats()
	n := int(st.Completed + st.Failed + st.Deduped + st.Rejected)
	now := time.Now()
	for len(w.settled) < n {
		w.settled = append(w.settled, now)
	}
	w.polls++
}

// stop ends the watcher and returns the settling instants in order.
func (w *watcher) stop() []time.Time {
	close(w.quit)
	<-w.done
	return w.settled
}

func (w *watcher) period() time.Duration {
	return w.ended.Sub(w.began) / time.Duration(max(w.polls, 1))
}

// latencyMetrics reports the median end to end. The upper quartile and
// the tail by the rule (tailQuantile) are computed too, but only the
// traced pass reports them: on the shared reference box p75 spread by up
// to 70 % of its median between identical runs while a neighbour was
// busy, p90 and above by 25-300 % at any time, and a metric that
// unsteady cannot carry a bound.
func (o *outcome) latencyMetrics(lat []time.Duration, what string) {
	s := sortedDurations(lat)
	q := tailQuantile(len(s))
	o.metrics["latency_p50_ms"] = ms(quantile(s, 0.5))
	o.metrics["latency.p75_ms"] = ms(quantile(s, 0.75))
	o.metrics["latency.tail_ms"] = ms(quantile(s, q))
	o.metrics["latency.tail_percentile"] = 100 * q
	o.note("latency = %s: %d samples (tail by the rule: p%g)", what, len(s), q*100)
}

// setupFixture is the set-up of both ingest workloads: the fixture is
// generated several times for setup_s, and every generation must hash
// the same — the proof that two runs of one seed replay identical input.
func setupFixture(rc runConfig, spec fixtureSpec, o *outcome) (*fixture, error) {
	var hashes []string
	fx, setup, err := repeatSetup(rc.size.setups, func() (*fixture, error) {
		fx, err := buildFixture(rc.seed, spec)
		if err == nil {
			hashes = append(hashes, fx.hash)
		}
		return fx, err
	})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup
	for _, h := range hashes {
		if h != fx.hash {
			o.check(false, "fixture generation is not deterministic: %s then %s", h, fx.hash)
		}
	}
	return fx, nil
}

// ingestHealthy is the closed loop: C connections replay healthy tenant
// days into a fresh node, cycle after cycle until the time is up. No
// detection is minted, so the service and the pipeline do nothing.
func ingestHealthy(rc runConfig) (*outcome, error) {
	o := newOutcome()
	spec := fixtureSpec{tenants: rc.size.healthy, healthyDays: rc.size.healthy, runs: rc.size.dayRuns}
	fx, err := setupFixture(rc, spec, o)
	if err != nil {
		return nil, err
	}
	o.note("fixture %s: %d tenants, %d items, %.1f MB JSON per cycle", fx.hash, len(fx.tenants), fx.items, float64(fx.bytes)/mb)

	var rate, cpu, allocs, bytes, heap []float64
	var lat []time.Duration
	var last *ingestRun
	base := liveHeap()
	for start, cycles := time.Now(), 0; ; {
		run, err := replayHTTP(rc, fx, false, base, o)
		if err != nil {
			return nil, err
		}
		cycles++
		n := float64(fx.items)
		rate = append(rate, n/run.cost.wall.Seconds())
		cpu = append(cpu, us(run.cost.cpu)/n)
		allocs = append(allocs, float64(run.cost.mallocs)/n)
		bytes = append(bytes, float64(run.cost.bytes)/n)
		heap = append(heap, run.heapLive)
		lat = append(lat, run.log.latency...)
		last = run
		if rc.trace != nil || cycles == rc.size.maxRounds || !timeLeft(start, run.cost.wall, rc.seconds) {
			break
		}
	}
	o.metrics["ops_per_s"] = median(rate)
	o.metrics["cpu_us_per_op"] = median(cpu)
	o.metrics["allocs_per_op"] = median(allocs)
	o.metrics["alloc_bytes_per_op"] = median(bytes)
	o.metrics["heap_live_end_mb"] = median(heap)
	o.latencyMetrics(lat, "POST to 202")
	o.note("op = evidence item; %d cycles, medians over cycles", len(rate))
	if rc.trace != nil {
		if err := ingestLayers(rc, fx, last, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// pacedTenants sizes the paced fixture so that one day of every tenant,
// sent at pacedRate, fills the run.
func pacedTenants(rc runConfig) int {
	if rc.size.pacedTenants > 0 {
		return rc.size.pacedTenants
	}
	return max(4, int(rc.seconds.Seconds()*pacedRate/dayItems))
}

// ingestPaced is the open loop: one connection sends every tenant's day
// at a fixed evidence rate, three tenants in four misconfigured. Every
// layer takes part, and the pool competes with the intake worker.
func ingestPaced(rc runConfig) (*outcome, error) {
	o := newOutcome()
	n := pacedTenants(rc)
	spec := fixtureSpec{
		tenants: n, faulty: n - n/4,
		faultyDays: rc.size.pacedDays, healthyDays: max(1, rc.size.pacedDays/3),
		runs: rc.size.dayRuns,
	}
	fx, err := setupFixture(rc, spec, o)
	if err != nil {
		return nil, err
	}
	o.note("fixture %s: %d tenants (%d faulty), %d items, %d detections, %.1f MB JSON",
		fx.hash, n, spec.faulty, fx.items, fx.expected, float64(fx.bytes)/mb)

	run, err := replayHTTP(rc, fx, true, liveHeap(), o)
	if err != nil {
		return nil, err
	}
	o.check(len(run.lag) == fx.expected, "%d of %d detections were seen to settle", len(run.lag), fx.expected)
	items := float64(fx.items)
	o.metrics["ops_per_s"] = items / run.cost.wall.Seconds()
	o.metrics["cpu_us_per_op"] = us(run.cost.cpu) / items
	o.metrics["allocs_per_op"] = float64(run.cost.mallocs) / items
	o.metrics["alloc_bytes_per_op"] = float64(run.cost.bytes) / items
	o.metrics["heap_live_end_mb"] = run.heapLive
	o.latencyMetrics(run.lag, "due time of the releasing POST to detection settled")
	late := quantile(sortedDurations(run.log.late), 0.95)
	o.note("op = evidence item at %d items/s; sender lateness p95 %.3f ms, watcher period %.0f us",
		pacedRate, ms(late), us(run.watch))
	if late > 5*time.Millisecond {
		// Lateness is already charged to every latency (they run from
		// the due time); past this the generator, not the server, may be
		// what the run measured.
		o.note("WARNING: the generator ran more than 5 ms late at p95; read this run's latencies with care")
	}
	if rc.trace != nil {
		if err := ingestLayers(rc, fx, run, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ---- diagnose-batch ---------------------------------------------------

// buildScenarios constructs the paper's scenarios. A seed on which a
// scenario's cold diagnosis misses its ground truth is passed over for
// the next candidate, so that no operation of the workload fails.
func buildScenarios(seed int64, ids []diads.ScenarioID) ([]*diads.Scenario, error) {
	out := make([]*diads.Scenario, 0, len(ids))
	for _, id := range ids {
		var picked *diads.Scenario
		for c := int64(0); c < 16 && picked == nil; c++ {
			sc, err := diads.BuildScenario(id, seed+int64(id)+c*instanceSeedStride)
			if err != nil {
				return nil, fmt.Errorf("building scenario %d: %w", id, err)
			}
			if _, ok, err := sc.Diagnose(); err != nil {
				return nil, fmt.Errorf("probing scenario %d: %w", id, err)
			} else if ok {
				picked = sc
			}
		}
		if picked == nil {
			return nil, fmt.Errorf("scenario %d: no candidate seed near %d diagnoses correctly", id, seed)
		}
		out = append(out, picked)
	}
	return out, nil
}

// diagnoseBatch is the interactive DBA path: every scenario diagnosed
// cold, round after round, on one goroutine. Nothing is ingested,
// monitored or queued.
func diagnoseBatch(rc runConfig) (*outcome, error) {
	o := newOutcome()
	base := liveHeap()
	scs, setup, err := repeatSetup(rc.size.setups, func() ([]*diads.Scenario, error) {
		return buildScenarios(rc.seed, rc.size.scenarios)
	})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup

	var lat []time.Duration
	perScenario := make([][]time.Duration, len(scs))
	var traces []diagTrace
	var blocks blockStats
	u0 := readUsage()
	blocks.begin()
	for start, rounds := time.Now(), 0; ; {
		t0 := time.Now()
		for i, sc := range scs {
			sp := rc.trace.start("Scenario.Diagnose", layerPipeline, 0, int(sc.ID))
			d0 := time.Now()
			res, ok, err := sc.Diagnose()
			d := time.Since(d0)
			sp.end()
			o.check(err == nil && ok, "scenario %d: correct=%v err=%v", sc.ID, ok, err)
			lat = append(lat, d)
			perScenario[i] = append(perScenario[i], d)
			if rc.trace != nil && res != nil && res.Trace != nil {
				traces = append(traces, diagTrace{wall: d, trace: res.Trace})
			}
		}
		blocks.add(len(scs))
		rounds++
		if rounds == rc.size.maxRounds || !timeLeft(start, time.Since(t0), rc.seconds) {
			break
		}
	}
	c := readUsage().since(u0)
	blocks.end()
	o.metrics["ops_per_s"] = median(blocks.rate)
	o.metrics["cpu_us_per_op"] = median(blocks.cpu)
	o.metrics["allocs_per_op"] = float64(c.mallocs) / float64(len(lat))
	o.metrics["alloc_bytes_per_op"] = float64(c.bytes) / float64(len(lat))
	o.latencyMetrics(lat, "Scenario.Diagnose wall")
	o.metrics["heap_live_end_mb"] = (float64(liveHeap()) - float64(base)) / mb
	o.note("op = diagnosis; %d rounds of %d scenarios, rate and CPU are medians over %d blocks", len(lat)/len(scs), len(scs), len(blocks.rate))
	if rc.trace != nil {
		if err := diagnoseLayers(scs, perScenario, traces, o); err != nil {
			return nil, err
		}
	}
	runtime.KeepAlive(scs)
	return o, nil
}

// ---- fleet-sim --------------------------------------------------------

// fleetSim streams a whole simulated fleet — waves, the epoch-seal
// exchange, learning, retention — repetition after repetition. The
// simulator cannot be separated from outside, so it is inside the timed
// section and accounted for by testbed.simulate_s in the traced run.
func fleetSim(rc runConfig) (*outcome, error) {
	o := newOutcome()
	spec := rc.size.fleet
	spec.Seed = rc.seed
	base := liveHeap()
	// Set-up computes the reference report every repetition must match.
	want, setup, err := repeatSetup(rc.size.setups, func() (string, error) {
		rep, _, err := experiments.RunFleetSpec(spec)
		if err != nil {
			return "", err
		}
		if rep.Stats.Completed == 0 || rep.Stats.Failed != 0 {
			return "", fmt.Errorf("reference fleet idle or failing: %+v", rep.Stats)
		}
		return rep.Render(), nil
	})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup

	var walls []time.Duration
	var cpu, allocs, bytes []float64
	var cpuTotal time.Duration
	var learning fleet.LearnStats
	var lastRender string
	for start := time.Now(); ; {
		sp := rc.trace.start("RunFleetSpec", layerFleet, 0, len(walls))
		u0 := readUsage()
		rep, _, err := experiments.RunFleetSpec(spec)
		c := readUsage().since(u0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("fleet repetition: %w", err)
		}
		lastRender = rep.Render()
		o.check(lastRender == want && rep.Stats.Failed == 0, "fleet report differs from the reference (failed=%d)", rep.Stats.Failed)
		walls = append(walls, c.wall)
		cpu = append(cpu, us(c.cpu))
		cpuTotal += c.cpu
		allocs = append(allocs, float64(c.mallocs))
		bytes = append(bytes, float64(c.bytes))
		learning = rep.Learning
		if len(walls) == rc.size.maxRounds || !timeLeft(start, c.wall, rc.seconds) {
			break
		}
	}
	o.latencyMetrics(walls, "RunFleetSpec wall")
	o.metrics["ops_per_s"] = 1 / (o.metrics["latency_p50_ms"] / 1e3)
	o.metrics["cpu_us_per_op"] = median(cpu)
	o.metrics["allocs_per_op"] = median(allocs)
	o.metrics["alloc_bytes_per_op"] = median(bytes)
	o.metrics["heap_live_end_mb"] = (float64(liveHeap()) - float64(base)) / mb
	o.note("op = fleet repetition (%d instances, %d degraded, %d runs); %d repetitions, medians",
		spec.Instances, spec.Degraded, spec.Runs, len(walls))
	if rc.trace != nil {
		if err := fleetLayers(rc, spec, cpuTotal/time.Duration(len(walls)), learning, o); err != nil {
			return nil, err
		}
	}
	runtime.KeepAlive(lastRender)
	return o, nil
}
