package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diads/internal/experiments"
)

// toySizes keeps the whole suite, traced pass included, within a few
// seconds: two tenants of an eight-hour day (the shortest on which the
// detector arms before the fault), one round, a two-instance fleet.
func toySizes() sizes {
	return sizes{
		setups:       1,
		dayRuns:      16,
		healthy:      2,
		pacedDays:    1,
		pacedTenants: 2,
		fleet:        experiments.FleetSpec{Instances: 2, Degraded: 1, Runs: 12, Shards: 2, MaxStreams: 2, Retention: true, ResidentCap: 1},
		scenarios:    allScenarios(),
		maxRounds:    1,
	}
}

// TestSmoke runs all four workloads, untraced and traced, and the trace
// writer at toy size, so tier-1 keeps the harness compiling and honest.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for i := range workloadDefs {
		w := &workloadDefs[i]
		rc := runConfig{seed: 1, seconds: time.Second, nproc: 2, size: toySizes()}
		o, spans, err := runTraced(w, rc)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: %d failed of %d attempted: %v", w.name, o.failed, o.attempted, o.failures)
		}
		for _, d := range endToEnd {
			if v := o.metrics[d.name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v)
			}
		}
		path, err := writeSpans(dir, w.name, spans)
		if err != nil {
			t.Fatalf("%s: writing spans: %v", w.name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != len(spans) || len(spans) == 0 {
			t.Fatalf("%s: %d span lines for %d spans", w.name, len(lines), len(spans))
		}
		var first span
		if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.ID != 1 || first.Name == "" {
			t.Errorf("%s: first span line %q: %v", w.name, lines[0], err)
		}

		// Each workload bypasses the layers it says it does.
		switch w.name {
		case wlIngestHealthy:
			if o.metrics["service.submitted"] != 0 || o.metrics["pipeline.da_ms"] != 0 {
				t.Errorf("ingest-healthy reached the service: submitted=%v da=%v",
					o.metrics["service.submitted"], o.metrics["pipeline.da_ms"])
			}
			if o.metrics["metrics.append_ns_per_sample"] <= 0 || o.metrics["api.accept_samples_us"] <= 0 {
				t.Errorf("ingest-healthy: ingest layers unmeasured: %v", o.metrics)
			}
		case wlIngestPaced:
			if o.metrics["service.completed"] == 0 || o.metrics["service.completed"] != o.metrics["monitor.events_minted"] {
				t.Errorf("ingest-incident-paced: completed=%v minted=%v",
					o.metrics["service.completed"], o.metrics["monitor.events_minted"])
			}
		case wlDiagnoseBatch:
			for _, s := range spans {
				if s.Layer == layerAPI || s.Layer == layerMonitor || s.Layer == layerService {
					t.Errorf("diagnose-batch recorded a %s span (%s)", s.Layer, s.Name)
				}
			}
			if o.metrics["api.accept_samples_us"] != 0 || o.metrics["service.submitted"] != 0 {
				t.Errorf("diagnose-batch reports ingest or service work: %v", o.metrics)
			}
		case wlFleetSim:
			if o.metrics["testbed.simulate_s"] <= 0 {
				t.Errorf("fleet-sim: rig time unmeasured")
			}
		}
	}
}

// TestResultLine pins the driver's protocol: exactly the four keys, and
// exactly the catalogue's metrics of the pass that ran.
func TestResultLine(t *testing.T) {
	o := newOutcome()
	o.metrics["ops_per_s"] = 3
	o.metrics["pipeline.da_ms"] = 2
	o.check(true, "")
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		data, err := json.Marshal(o.result(defs))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Fatalf("result keys: %s", data)
		}
		var ms map[string]wireMetric
		if err := json.Unmarshal(got["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(defs) {
			t.Errorf("%d metrics in the line, %d in the catalogue", len(ms), len(defs))
		}
		for _, d := range defs {
			if m, ok := ms[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json and the code's
// catalogue together: same workloads, metrics, units, directions and
// bounds, and the command and paths this directory answers to.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if strings.Join(bf.Command, " ") != "go run ./cmd/diadsperf" || len(bf.Paths) != 1 || bf.Paths[0] != "cmd/diadsperf" {
		t.Errorf("command %v, paths %v", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v, code has %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the catalogue %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound || d.bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, m, d)
		}
		seen[d.name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, m, d)
		}
		if seen[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestTailQuantile pins the rule for tails: the highest percentile with
// at least ten samples beyond it.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90},
		{200, 0.95}, {576, 0.95}, {999, 0.95}, {1000, 0.99}, {3600, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]int, 100)
	for i := range sorted {
		sorted[i] = i + 1
	}
	if got := quantile(sorted, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", got)
	}
	if got := quantile(sorted, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %d, want 90", got)
	}
	if got := quantile(sorted[:1], 0.99); got != 1 {
		t.Errorf("p99 of one sample = %d", got)
	}
}

// TestOpenLoopChargesFromDueTime stalls the server on the first request
// and checks the open loop's contract: the posts queued behind the stall
// are charged from when they were due, and the sender's lateness is
// reported.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if first {
			first = false
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"accepted":1,"queue_depth":3}`))
	}))
	defer srv.Close()
	steps := make([]step, 3)
	posts := make([]post, len(steps))
	for i := range steps {
		steps[i] = step{kind: stepSamples, body: []byte(`{}`), items: 10}
		posts[i] = post{tenant: 0, step: &steps[i]}
	}
	due := dueTimes(posts, 1000) // 10 items at 1000 items/s: one post every 10 ms
	if due[0] != 0 || due[1] != 10*time.Millisecond || due[2] != 20*time.Millisecond {
		t.Fatalf("due times %v", due)
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	log := openLoop(client, srv.URL, posts, due, nil)
	if len(log.failed) != 0 || len(log.latency) != 3 || log.depthMax != 3 {
		t.Fatalf("log: %+v", log)
	}
	// Post 1 was due at 10 ms but could not start before the stall ended.
	if log.late[1] < stall-15*time.Millisecond {
		t.Errorf("post 1 started %v late, want about %v", log.late[1], stall-10*time.Millisecond)
	}
	if log.latency[1] < log.late[1] {
		t.Errorf("post 1 latency %v does not include its lateness %v", log.latency[1], log.late[1])
	}
	if log.latency[0] < stall {
		t.Errorf("post 0 latency %v, the server stalled %v", log.latency[0], stall)
	}
}

// TestPostRetries429 checks the retry contract: a refused POST is tried
// again and counted, and a non-202 answer is a failure.
func TestPostRetries429(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		switch {
		case strings.HasSuffix(r.URL.Path, "/runs"):
			w.WriteHeader(http.StatusBadRequest)
		case calls <= 2:
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write([]byte(`{"accepted":1,"queue_depth":0}`))
		}
	}))
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	r := postStep(client, srv.URL, &step{kind: stepSamples, body: []byte(`{}`)})
	if r.err != nil || r.retries != 2 {
		t.Errorf("after two 429s: retries=%d err=%v", r.retries, r.err)
	}
	if r := postStep(client, srv.URL, &step{kind: stepRuns, body: []byte(`{}`)}); r.err == nil {
		t.Error("a 400 did not count as failed")
	}
}

// TestSelfTime pins span self-time arithmetic: duration minus the part
// the direct children cover, overlaps counted once, children clipped to
// the parent, grandchildren charged to their own parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Layer: layerHarness, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Layer: layerAPI, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Layer: layerMetrics, Start: 30, End: 60},    // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Layer: layerMonitor, Start: 90, End: 120},   // runs past the parent
		{ID: 5, Parent: 2, Name: "a1", Layer: layerService, Start: 15, End: 25},   // grandchild
		{ID: 6, Parent: 0, Name: "lone", Layer: layerFleet, Start: 200, End: 207}, // second root
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName := spanTotals(spans)
	if byName["root"] != 40 || byName["a"] != 20 || byName["a1"] != 10 {
		t.Errorf("self times by name %v", byName)
	}
	var nilTracer *tracer
	h := nilTracer.start("x", layerAPI, 0, 0)
	h.end() // tracing off: a no-op, not a panic
	if nilTracer.snapshot() != nil || h.id != 0 {
		t.Error("nil tracer recorded something")
	}
}

// TestFixtureRepeats checks the record half: the same seed generates
// byte-identical bodies, another seed does not, every tenant's steps
// stay in order on one connection, and the planned releases add up.
func TestFixtureRepeats(t *testing.T) {
	spec := fixtureSpec{tenants: 3, faulty: 2, faultyDays: 1, healthyDays: 1, runs: 16}
	a, err := buildFixture(7, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildFixture(7, spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildFixture(8, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash != b.hash || a.items != b.items || a.hash == c.hash {
		t.Errorf("hashes: %s %s %s", a.hash, b.hash, c.hash)
	}
	if a.expected == 0 || a.expected != 2*len(a.tenants[0].day.minted) || len(a.tenants[2].day.minted) != 0 {
		t.Errorf("expected detections %d; per-tenant %d %d %d", a.expected,
			len(a.tenants[0].day.minted), len(a.tenants[1].day.minted), len(a.tenants[2].day.minted))
	}
	for conns := 1; conns <= 2; conns++ {
		sched := a.schedule(conns, q2Period/3)
		next := make([]int, len(a.tenants))
		conn := make([]int, len(a.tenants))
		releases, posts := 0, 0
		for c, list := range sched {
			for _, p := range list {
				if p.step != &a.tenants[p.tenant].steps[next[p.tenant]] {
					t.Fatalf("conns=%d: tenant %d step out of order", conns, p.tenant)
				}
				if next[p.tenant] > 0 && conn[p.tenant] != c {
					t.Fatalf("conns=%d: tenant %d changed connection", conns, p.tenant)
				}
				conn[p.tenant] = c
				next[p.tenant]++
				releases += p.step.releases
				posts++
			}
		}
		if releases != a.expected {
			t.Errorf("conns=%d: schedule releases %d detections, fixture expects %d", conns, releases, a.expected)
		}
		for ti, n := range next {
			if n != len(a.tenants[ti].steps) {
				t.Errorf("conns=%d: tenant %d posted %d of %d steps", conns, ti, n, len(a.tenants[ti].steps))
			}
		}
	}
}

// TestCompareSuites checks -check's verdicts: a metric past its bound or
// an exact count that moved makes the passes disagree.
func TestCompareSuites(t *testing.T) {
	mk := func(ops, minted float64) *suiteResult {
		s := &suiteResult{}
		for range workloadDefs {
			p, tr := newOutcome(), newOutcome()
			for _, d := range endToEnd {
				p.metrics[d.name] = 100
			}
			p.metrics["ops_per_s"] = ops
			tr.metrics["monitor.events_minted"] = minted
			s.plain, s.traced = append(s.plain, p.result(endToEnd)), append(s.traced, tr.result(perLayer))
		}
		return s
	}
	if !compareSuites(io.Discard, mk(100, 5), mk(110, 5)) {
		t.Error("a 10% move inside a 25% bound disagreed")
	}
	if compareSuites(io.Discard, mk(100, 5), mk(60, 5)) {
		t.Error("a 40% move agreed")
	}
	if compareSuites(io.Discard, mk(100, 5), mk(100, 6)) {
		t.Error("an exact count that moved agreed")
	}
}
