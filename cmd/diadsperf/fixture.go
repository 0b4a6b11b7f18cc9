package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"diads/internal/api"
	"diads/internal/exec"
	"diads/internal/experiments"
	"diads/internal/monitor"
	"diads/internal/simtime"
	"diads/internal/testbed"
)

// The fixture is the record half of record-and-replay: instance-days are
// simulated once in set-up (the rig: testbed/sanperf/exec), turned into
// the wire form a monitoring agent would post, and from then on the
// program under test sees only those bytes. Nothing here runs inside a
// timed section.

// sampleBatch is the number of samples per POST /v1/ingest/samples.
const sampleBatch = 256

// instanceSeedStride separates the instance-days' randomness streams.
const instanceSeedStride = 1_000_003

type stepKind int

const (
	stepEvents stepKind = iota
	stepRuns
	stepSamples
)

var stepRoute = [...]string{"/v1/ingest/events", "/v1/ingest/runs", "/v1/ingest/samples"}

// stepPlan is one POST of an instance-day's replay, before it is bound
// to a tenant name: a slice of the day's evidence plus what the harness
// monitor says the server must do when the step lands.
type stepPlan struct {
	kind   stepKind
	lo, hi int // item range in the day's events / runs / samples
	// at is the evidence time the step travels under: the watermark of
	// the sample batch it belongs to. Steps of several tenants are
	// merged on it, so every tenant's clock advances together.
	at float64
	// watermark is the explicit closing watermark (final step only).
	watermark *float64
	// releases counts the detections this step's watermark frees from
	// the gate — the release schedule incident lag is measured against.
	releases int
}

// instanceDay is one simulated instance over one day of evidence, in
// harness form: what the layer replays consume directly and what the
// tenant bodies are serialised from.
type instanceDay struct {
	faulty  bool
	events  []api.WireEvent
	runs    []*exec.RunRecord // completion order
	samples []api.WireSample  // global time order
	plan    []stepPlan
	// minted is every detection the day produces, in release order,
	// from the harness-owned monitor and gate.
	minted []monitor.SlowdownEvent
	// testbed is the simulated environment; its store holds the day's
	// samples for the layer replays that read windows.
	testbed *testbed.Testbed
}

func (d *instanceDay) items() int { return len(d.events) + len(d.runs) + len(d.samples) }

// faultEvents is the wire form of the SAN misconfiguration's
// configuration events: what a storage-management stack would post when
// an operator carves V' from the victim pool.
func faultEvents(onset simtime.Time) []api.WireEvent {
	at := float64(onset)
	return []api.WireEvent{
		{T: at, Kind: "VolumeCreated", Subject: "vol-Vp", Detail: "volume V' created in pool-P1",
			Pool: string(testbed.PoolP1), Name: "V'", SizeGB: 80},
		{T: at + 30, Kind: "ZoneCreated", Subject: "vol-Vp", Detail: "zoning for host srv-app1"},
		{T: at + 60, Kind: "LUNMapped", Subject: "vol-Vp", Detail: "LUN mapped to host srv-app1",
			Server: string(testbed.ServerApp1)},
		{T: at + 120, Kind: "WorkloadStarted", Subject: "vol-Vp", Detail: "external workload started on V'"},
	}
}

// simulateDay runs the rig for one instance with the monitor detached
// (runs travel over the wire instead) and plans its replay.
func simulateDay(seed int64, runs int, faulty bool) (*instanceDay, error) {
	env, err := experiments.BuildOnline(experiments.OnlineSpec{Seed: seed, Runs: runs, NoFault: !faulty})
	if err != nil {
		return nil, fmt.Errorf("building instance %d: %w", seed, err)
	}
	tb := env.Testbed
	tb.Engine.OnRunComplete = nil
	if err := tb.Simulate(); err != nil {
		return nil, fmt.Errorf("simulating instance %d: %w", seed, err)
	}
	d := &instanceDay{faulty: faulty, testbed: tb}
	if faulty {
		d.events = faultEvents(env.Onset)
	}
	d.runs = append(d.runs, tb.Runs...)
	sort.SliceStable(d.runs, func(i, j int) bool { return d.runs[i].Stop < d.runs[j].Stop })
	for _, k := range tb.Store.Keys() {
		for _, s := range tb.Store.Series(k.Component, k.Metric) {
			d.samples = append(d.samples, api.WireSampleOf(k.Component, k.Metric, s))
		}
	}
	sort.SliceStable(d.samples, func(i, j int) bool { return d.samples[i].T < d.samples[j].T })
	d.planReplay()
	return d, nil
}

// planReplay orders the day's evidence the way the ingest contract
// requires — events, then runs, then the sample batch whose watermark
// covers them — and replays the runs through a harness-owned monitor
// and gate to learn which step releases which detection.
func (d *instanceDay) planReplay() {
	mon := monitor.New(monitor.Config{})
	gate := &monitor.Gate{}
	var lastEnd simtime.Time
	mon.SetSink(func(ev monitor.SlowdownEvent) {
		if ev.ReadWindow.End > lastEnd {
			lastEnd = ev.ReadWindow.End
		}
		gate.Add(ev)
	})
	nextEvent, nextRun := 0, 0
	flushUpTo := func(w float64, all bool) {
		lo := nextEvent
		for nextEvent < len(d.events) && (all || d.events[nextEvent].T <= w) {
			nextEvent++
		}
		if nextEvent > lo {
			d.plan = append(d.plan, stepPlan{kind: stepEvents, lo: lo, hi: nextEvent, at: w})
		}
		lo = nextRun
		for nextRun < len(d.runs) && (all || float64(d.runs[nextRun].Stop) <= w) {
			mon.Observe(d.runs[nextRun])
			nextRun++
		}
		if nextRun > lo {
			d.plan = append(d.plan, stepPlan{kind: stepRuns, lo: lo, hi: nextRun, at: w})
		}
	}
	release := func(w float64) int {
		freed := gate.Release(simtime.Time(w))
		d.minted = append(d.minted, freed...)
		return len(freed)
	}
	var w float64
	for lo := 0; lo < len(d.samples); lo += sampleBatch {
		hi := min(lo+sampleBatch, len(d.samples))
		w = d.samples[hi-1].T
		flushUpTo(w, false)
		d.plan = append(d.plan, stepPlan{kind: stepSamples, lo: lo, hi: hi, at: w, releases: release(w)})
	}
	flushUpTo(w, true)
	if gate.Pending() > 0 {
		// Close the day: an empty batch whose watermark is the last
		// read window's own end frees what is still gated.
		final := float64(lastEnd)
		d.plan = append(d.plan, stepPlan{kind: stepSamples, at: final, watermark: &final, releases: release(final)})
	}
}

// step is one pre-serialised POST of a tenant's replay.
type step struct {
	kind     stepKind
	body     []byte
	items    int
	at       float64
	releases int
}

// tenant is an instance-day posted under one tenant name.
type tenant struct {
	name  string
	day   *instanceDay
	steps []step
}

const tenantInstance = "db-1"

// newTenant serialises the day's plan under the tenant's name.
func newTenant(name string, d *instanceDay) (*tenant, error) {
	t := &tenant{name: name, day: d, steps: make([]step, 0, len(d.plan))}
	for _, p := range d.plan {
		var v any
		switch p.kind {
		case stepEvents:
			v = api.EventBatch{Tenant: name, Instance: tenantInstance, Events: d.events[p.lo:p.hi]}
		case stepRuns:
			wire := make([]api.WireRun, 0, p.hi-p.lo)
			for _, rec := range d.runs[p.lo:p.hi] {
				wire = append(wire, api.WireRunOf(rec))
			}
			v = api.RunBatch{Tenant: name, Instance: tenantInstance, Runs: wire}
		case stepSamples:
			v = api.SampleBatch{Tenant: name, Instance: tenantInstance,
				Samples: d.samples[p.lo:p.hi], Watermark: p.watermark}
		}
		body, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("serialising %s step for %s: %w", stepRoute[p.kind], name, err)
		}
		t.steps = append(t.steps, step{kind: p.kind, body: body, items: p.hi - p.lo, at: p.at, releases: p.releases})
	}
	return t, nil
}

// fixtureSpec sizes an ingest fixture.
type fixtureSpec struct {
	tenants int // tenant names posted
	faulty  int // of which carry the SAN misconfiguration
	// healthyDays and faultyDays are the distinct simulated
	// instance-days the tenants are fanned out from.
	healthyDays, faultyDays int
	runs                    int // Q2 runs per day (48 = 24 h)
}

// fixture is the generated input of an ingest workload.
type fixture struct {
	tenants []*tenant // faulty first
	hash    string    // content hash of every body, in posting order
	items   int       // evidence items over all tenants
	bytes   int       // body bytes over all tenants
	// expected is the total number of detections the tenants release.
	expected int
}

// buildFixture simulates the distinct instance-days and fans them out
// to tenant names. A healthy day that trips the detector is skipped in
// favour of the next candidate seed, and likewise a faulty day that
// mints nothing: the workloads are chosen so that no operation fails,
// and the choice is a deterministic function of the seed.
func buildFixture(seed int64, spec fixtureSpec) (*fixture, error) {
	pick := func(n int, faulty bool, stream int64) ([]*instanceDay, error) {
		days := make([]*instanceDay, 0, n)
		for c := int64(0); len(days) < n; c++ {
			if c > int64(4*n+16) {
				return nil, fmt.Errorf("fixture: no usable instance-days for seed %d (faulty=%v)", seed, faulty)
			}
			d, err := simulateDay(seed*instanceSeedStride+stream+c, spec.runs, faulty)
			if err != nil {
				return nil, err
			}
			if (len(d.minted) > 0) == faulty {
				days = append(days, d)
			}
		}
		return days, nil
	}
	var healthy, faulty []*instanceDay
	var err error
	if spec.faulty > 0 {
		if faulty, err = pick(spec.faultyDays, true, 0); err != nil {
			return nil, err
		}
	}
	if spec.tenants > spec.faulty {
		if healthy, err = pick(spec.healthyDays, false, 500_000); err != nil {
			return nil, err
		}
	}
	fx := &fixture{}
	h := sha256.New()
	for i := 0; i < spec.tenants; i++ {
		var d *instanceDay
		if i < spec.faulty {
			d = faulty[i%len(faulty)]
		} else {
			d = healthy[(i-spec.faulty)%len(healthy)]
		}
		t, err := newTenant("tenant-"+strconv.Itoa(i), d)
		if err != nil {
			return nil, err
		}
		for _, s := range t.steps {
			h.Write(s.body)
			fx.bytes += len(s.body)
		}
		fx.tenants = append(fx.tenants, t)
		fx.items += d.items()
		fx.expected += len(d.minted)
	}
	fx.hash = hex.EncodeToString(h.Sum(nil))[:16]
	return fx, nil
}

// post is one step placed on a connection's schedule.
type post struct {
	tenant int
	step   *step
}

// q2Period is the evidence time between a tenant's Q2 runs, and so
// between its detections once the fault has struck.
const q2Period = 30 * 60.0

// schedule merges the tenants' steps into conns posting orders. A
// tenant's steps stay on one connection in evidence-time order (the
// ingest contract orders per batch); tenants on a connection advance
// through the day together, tenant k running k*skew evidence seconds
// behind tenant 0. Tenants' clocks are their own — only ordering and
// durations matter to the server — and independent systems do not run
// their batch windows in phase, so the paced workload spreads the
// tenants over one Q2 period instead of releasing every tenant's
// detection in the same instant.
func (fx *fixture) schedule(conns int, skew float64) [][]post {
	type keyed struct {
		post
		key float64
	}
	byConn := make([][]keyed, conns)
	for ti, t := range fx.tenants {
		c := ti % conns
		for si := range t.steps {
			byConn[c] = append(byConn[c], keyed{post{tenant: ti, step: &t.steps[si]}, t.steps[si].at + float64(ti)*skew})
		}
	}
	out := make([][]post, conns)
	for c, posts := range byConn {
		sort.SliceStable(posts, func(i, j int) bool { return posts[i].key < posts[j].key })
		for _, p := range posts {
			out[c] = append(out[c], p.post)
		}
	}
	return out
}
