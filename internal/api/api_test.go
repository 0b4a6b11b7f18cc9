package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"diads/internal/dbsys"
	"diads/internal/experiments"
	"diads/internal/fleet"
	"diads/internal/metrics"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
	"diads/internal/testbed"
	"diads/internal/topology"
)

const testSeed = 11

// postJSON posts v to url and returns the response with its body read.
func postJSON(t *testing.T, client *http.Client, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, client *http.Client, url string, out any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp
}

// simulateClient runs the online SAN-misconfiguration scenario locally —
// the "real system" whose monitoring we serialize over the wire.
func simulateClient(t testing.TB, spec experiments.OnlineSpec) *experiments.OnlineEnv {
	t.Helper()
	env, err := experiments.BuildOnline(spec)
	if err != nil {
		t.Fatalf("building online env: %v", err)
	}
	env.Testbed.Engine.OnRunComplete = nil // runs travel over the wire instead
	if err := env.Testbed.Simulate(); err != nil {
		t.Fatalf("simulating: %v", err)
	}
	return env
}

// logEvents is the wire form of the client's change log: what a real
// storage-management stack and database would post.
func logEvents(tb *testbed.Testbed) []WireEvent {
	var out []WireEvent
	for _, e := range tb.Cfg.Log.All() {
		out = append(out, WireEventOf(e))
	}
	return out
}

// storeSamples serializes every series of the client store, globally
// sorted by time — the posting order the watermark contract requires
// (a watermark advance asserts every series is complete up to it).
func storeSamples(tb *testbed.Testbed) []WireSample {
	var out []WireSample
	for _, k := range tb.Store.Keys() {
		for _, s := range tb.Store.Series(k.Component, k.Metric) {
			out = append(out, WireSampleOf(k.Component, k.Metric, s))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// TestEndToEndIngestDiagnosis is the tentpole acceptance test: a
// diagnosed incident produced entirely from externally POSTed data —
// no simulator on the serving side — retrievable from /v1/incidents,
// with its trace visible in /traces.
func TestEndToEndIngestDiagnosis(t *testing.T) {
	env := simulateClient(t, experiments.OnlineSpec{Seed: testSeed, Runs: 16})
	tb := env.Testbed

	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	tsrv := telemetry.NewServer("127.0.0.1:0", nil, nil)
	node.Mount(tsrv)
	hs := httptest.NewServer(tsrv.Handler())
	defer hs.Close()
	client := hs.Client()

	// Not ready before the first watermark advance.
	if resp := getJSON(t, client, hs.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before ingest = %d, want 503", resp.StatusCode)
	}

	// 1. Configuration events (the misconfiguration as a real
	// storage-management stack would report it).
	resp, body := postJSON(t, client, hs.URL+"/v1/ingest/events", EventBatch{
		Tenant: "acme", Instance: "db-1", Events: logEvents(tb),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("events: %d %s", resp.StatusCode, body)
	}

	// 2. Run records, batched like a monitoring agent would flush them.
	runs := make([]WireRun, 0, len(tb.Runs))
	for _, rec := range tb.Runs {
		runs = append(runs, WireRunOf(rec))
	}
	const runChunk = 16
	for i := 0; i < len(runs); i += runChunk {
		end := min(i+runChunk, len(runs))
		resp, body = postJSON(t, client, hs.URL+"/v1/ingest/runs", RunBatch{
			Tenant: "acme", Instance: "db-1", Runs: runs[i:end],
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("runs[%d:%d]: %d %s", i, end, resp.StatusCode, body)
		}
	}

	// 3. Metric samples; the final batch carries an explicit watermark
	// past every gated event's read window.
	samples := storeSamples(tb)
	if len(samples) == 0 {
		t.Fatal("client store produced no samples")
	}
	final := float64(env.Horizon.Add(2 * metrics.DefaultMonitorInterval))
	const sampleChunk = 4096
	for i := 0; i < len(samples); i += sampleChunk {
		end := min(i+sampleChunk, len(samples))
		b := SampleBatch{Tenant: "acme", Instance: "db-1", Samples: samples[i:end]}
		if end == len(samples) {
			b.Watermark = &final
		}
		resp, body = postJSON(t, client, hs.URL+"/v1/ingest/samples", b)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("samples[%d:%d]: %d %s", i, end, resp.StatusCode, body)
		}
	}

	if err := node.Quiesce(); err != nil {
		t.Fatalf("quiesce: %v", err)
	}

	// Ready now.
	if resp := getJSON(t, client, hs.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after ingest = %d, want 200", resp.StatusCode)
	}

	// The injected slowdown must surface as a diagnosed incident.
	var list struct {
		Incidents []IncidentView `json:"incidents"`
	}
	getJSON(t, client, hs.URL+"/v1/incidents", &list)
	if len(list.Incidents) == 0 {
		t.Fatalf("no incidents after ingest; service stats: %+v", node.Service().Stats())
	}
	answer := env.Fault.Answer(env.Testbed)
	var hit *IncidentView
	for i := range list.Incidents {
		inc := &list.Incidents[i]
		if experiments.Named(inc.Kind, inc.Subject, answer) && inc.Tenant == "acme" && inc.Instance == "db-1" {
			hit = inc
			break
		}
	}
	if hit == nil {
		t.Fatalf("no incident for acme/db-1 names one of %v in %+v", answer, list.Incidents)
	}

	// Detail route by stable ID.
	var detail struct {
		Incident IncidentView `json:"incident"`
		Causes   []CauseView  `json:"causes"`
	}
	if resp := getJSON(t, client, hs.URL+"/v1/incidents/"+hit.ID, &detail); resp.StatusCode != http.StatusOK {
		t.Fatalf("incident detail = %d", resp.StatusCode)
	}
	if len(detail.Causes) == 0 {
		t.Error("incident detail has no causes")
	}

	// The diagnosis trace is visible in /traces under the event's ID.
	if hit.TraceID == "" {
		t.Fatal("incident carries no trace ID")
	}
	var traces struct {
		Spans []telemetry.Span `json:"spans"`
	}
	getJSON(t, client, hs.URL+"/traces?trace="+hit.TraceID, &traces)
	var sawRelease, sawDiagnose bool
	for _, sp := range traces.Spans {
		switch sp.Name {
		case "api.ingest.release":
			sawRelease = true
		case "service.diagnose":
			sawDiagnose = true
		}
	}
	if !sawRelease || !sawDiagnose {
		t.Errorf("trace %s missing spans (release=%v diagnose=%v): %+v",
			hit.TraceID, sawRelease, sawDiagnose, traces.Spans)
	}

	// Module timings flow through the query route.
	var mods struct {
		Modules []struct {
			Module string `json:"module"`
			Runs   int64  `json:"runs"`
		} `json:"modules"`
	}
	getJSON(t, client, hs.URL+"/v1/modules", &mods)
	if len(mods.Modules) == 0 {
		t.Error("no module stats after diagnoses")
	}

	// The exposition stays valid and carries the api families beside
	// those of the layers behind them.
	expo := telemetry.Default().Exposition()
	if err := telemetry.ValidateExposition(expo); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, fam := range []string{
		"diads_api_requests_total",
		"diads_api_request_seconds",
		"diads_api_ingest_batches_total",
		"diads_api_ingest_queue_depth",
		"diads_api_events_released_total",
		"diads_monitor_",
		"diads_service_",
		"diads_module_",
	} {
		if !bytes.Contains(expo, []byte(fam)) {
			t.Errorf("exposition missing %s", fam)
		}
	}
}

// holdInstance builds the scoped instance if need be and returns it
// locked: batches for it wait to apply until release unlocks it. Defer
// release after the node's Shutdown, which waits for those batches, so
// a test that stops early does not hang.
func holdInstance(t *testing.T, node *Node, tenant, instance string) (in *instance, release func()) {
	t.Helper()
	in, err := node.acquire(tenant, instance, 0)
	if err != nil {
		t.Fatal(err)
	}
	return in, sync.OnceFunc(in.mu.Unlock)
}

// postStatus posts body to url and returns the status code, 0 when the
// request failed. It never stops the test, so goroutines may call it.
func postStatus(client *http.Client, url string, body []byte) int {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// parkedOnInstances counts the goroutines parked on an instance lock.
func parkedOnInstances() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("[sync.Mutex.Lock")) && bytes.Contains(g, []byte("(*Node).acquire")) {
			n++
		}
	}
	return n
}

// sampleBody is a one-sample batch for the scoped instance at time at,
// its watermark at the sample.
func sampleBody(t *testing.T, tenant, instance string, at float64) []byte {
	t.Helper()
	body, err := json.Marshal(SampleBatch{Tenant: tenant, Instance: instance, Watermark: &at,
		Samples: []WireSample{{Component: "c", Metric: "m", T: at, V: at}}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestIngestBackpressure pins the bounded-intake contract: with one
// instance's lock held, batches for it wait to apply until exactly
// QueueDepth of them are admitted, the next batch gets 429 +
// Retry-After: 1 and the rejection is counted; released, the waiting
// batches apply and are answered 202.
func TestIngestBackpressure(t *testing.T) {
	node := New(Config{Seed: testSeed, QueueDepth: 4})
	defer node.Shutdown()
	hs := httptest.NewServer(node.Handler())
	defer hs.Close()
	client := hs.Client()
	url := hs.URL + "/v1/ingest/samples"

	before := node.tel.rejected[reasonBackpressure].Value()
	_, release := holdInstance(t, node, "t", "i")
	defer release()
	codes := make(chan int, node.cfg.QueueDepth)
	for i := range node.cfg.QueueDepth {
		body := sampleBody(t, "t", "i", float64(i+1))
		go func() { codes <- postStatus(client, url, body) }()
	}
	waitUntil(t, "QueueDepth batches wait", func() bool { return node.waiting.Load() == int64(node.cfg.QueueDepth) })
	resp, body := postJSON(t, client, url, json.RawMessage(sampleBody(t, "other", "i", 1)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch past QueueDepth = %d %s, want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want \"1\"", got)
	}
	if !strings.Contains(string(body), "intake queue full; retry after 1s") {
		t.Errorf("429 body: %s", body)
	}
	if after := node.tel.rejected[reasonBackpressure].Value(); after <= before {
		t.Errorf("rejection counter did not move: %v -> %v", before, after)
	}

	release()
	for range node.cfg.QueueDepth {
		if code := <-codes; code != http.StatusAccepted {
			t.Errorf("waiting batch answered %d, want 202", code)
		}
	}
	if err := node.Quiesce(); err != nil {
		t.Fatalf("quiesce after release: %v", err)
	}
	if err := telemetry.ValidateExposition(telemetry.Default().Exposition()); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

// TestInstancesApplyIndependently: with instance A's lock held, a batch
// for instance B is answered 202 and applied; the batches waiting on A
// then apply in the order they reached its lock, each sample later than
// the last, so the store refuses none of them.
func TestInstancesApplyIndependently(t *testing.T) {
	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	hs := httptest.NewServer(node.Handler())
	defer hs.Close()
	client := hs.Client()
	url := hs.URL + "/v1/ingest/samples"
	errs := node.tel.applyErr.Value()

	_, release := holdInstance(t, node, "a", "db")
	defer release()
	const waiting = 5
	codes := make(chan int, waiting)
	for i := range waiting {
		body := sampleBody(t, "a", "db", float64(i+1))
		go func() { codes <- postStatus(client, url, body) }()
		waitUntil(t, "the batch waits on A's lock", func() bool { return parkedOnInstances() == i+1 })
	}
	if code := postStatus(client, url, sampleBody(t, "b", "db", 1)); code != http.StatusAccepted {
		t.Fatalf("B's batch with A held = %d, want 202", code)
	}
	series := func(tenant string) []metrics.Sample {
		node.mu.Lock()
		in := node.instances[keyOf(tenant, "db")]
		node.mu.Unlock()
		return in.Testbed.Store.Series("c", "m")
	}
	if got := series("b"); len(got) != 1 {
		t.Fatalf("B's store holds %v after its 202, want the one posted sample", got)
	}
	if got := series("a"); len(got) != 0 {
		t.Fatalf("A's store holds %v while A is held", got)
	}

	release()
	for range waiting {
		if code := <-codes; code != http.StatusAccepted {
			t.Errorf("A's waiting batch answered %d, want 202", code)
		}
	}
	var got []float64
	for _, s := range series("a") {
		got = append(got, float64(s.T))
	}
	if want := []float64{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("A's store holds samples at %v, want %v (arrival order)", got, want)
	}
	if d := node.tel.applyErr.Value() - errs; d != 0 {
		t.Errorf("%d items refused at apply", d)
	}
}

// TestSlowBodyTimesOut pins the request deadline on the one wait a
// handler has, the body: a body still arriving at Timeout is answered
// 503 within Timeout plus slack, counted under code="503", and never
// applied, however long the client goes on sending.
func TestSlowBodyTimesOut(t *testing.T) {
	const timeout = 100 * time.Millisecond
	node := New(Config{Seed: testSeed, Timeout: timeout})
	defer node.Shutdown()
	hs := httptest.NewServer(node.Handler())
	defer hs.Close()

	timedOut := node.tel.reg.Counter("diads_api_requests_total",
		"API requests, by route and status code.",
		telemetry.Labels{"route": "ingest_samples", "code": "503"})
	before, batches := timedOut.Value(), node.tel.batches.Value()

	// One byte every 20 ms: the whole body would take 840 ms.
	body := []byte(`{"tenant":"t","instance":"i","samples":[]}`)
	pr, pw := io.Pipe()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := range body {
			if _, err := pw.Write(body[i : i+1]); err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		pw.Close()
	}()
	start := time.Now()
	resp, err := hs.Client().Post(hs.URL+"/v1/ingest/samples", "application/json", pr)
	elapsed := time.Since(start)
	pr.CloseWithError(io.ErrClosedPipe) // stops the sender
	<-sent
	if err != nil {
		t.Fatalf("slow POST: %v", err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	if slack := 400 * time.Millisecond; elapsed > timeout+slack {
		t.Errorf("slow body answered after %v, want within %v", elapsed, timeout+slack)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(reply), "request timed out") {
		t.Errorf("slow body = %d %s, want 503 request timed out", resp.StatusCode, reply)
	}
	if !resp.Close {
		t.Error("connection left open behind an unread body")
	}
	if got := timedOut.Value() - before; got != 1 {
		t.Errorf(`requests_total{route="ingest_samples",code="503"} moved by %d, want 1`, got)
	}
	if err := node.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got := node.tel.batches.Value() - batches; got != 0 || node.InstanceCount() != 0 {
		t.Errorf("timed-out body applied %d batches, %d instances resident", got, node.InstanceCount())
	}
}

// TestIngestTraceID: a request's X-Diads-Trace names its own span, and
// the release span of every detection its samples release carries it
// as the request attribute.
func TestIngestTraceID(t *testing.T) {
	env := simulateClient(t, experiments.OnlineSpec{Seed: testSeed, Runs: 16})
	tb := env.Testbed
	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	h := node.Handler()
	post := func(route string, v any, traceID string) {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
		if traceID != "" {
			req.Header.Set("X-Diads-Trace", traceID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST %s = %d %s", route, rec.Code, rec.Body)
		}
	}
	post("/v1/ingest/events", EventBatch{Tenant: "acme", Instance: "db-1", Events: logEvents(tb)}, "")
	runs := make([]WireRun, 0, len(tb.Runs))
	for _, rec := range tb.Runs {
		runs = append(runs, WireRunOf(rec))
	}
	post("/v1/ingest/runs", RunBatch{Tenant: "acme", Instance: "db-1", Runs: runs}, "")
	if err := node.Quiesce(); err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.DefaultTracer()
	before := tracer.Total()
	final := float64(env.Horizon.Add(2 * metrics.DefaultMonitorInterval))
	post("/v1/ingest/samples", SampleBatch{Tenant: "acme", Instance: "db-1",
		Samples: storeSamples(tb), Watermark: &final}, "t-1")
	if err := node.Quiesce(); err != nil {
		t.Fatal(err)
	}

	spans := tracer.Recent(0)
	if recorded := int(tracer.Total() - before); recorded <= len(spans) {
		spans = spans[len(spans)-recorded:] // this test's spans alone
	} else {
		t.Fatalf("%d spans recorded, the tracer keeps %d", recorded, len(spans))
	}
	var request, released int
	for _, sp := range spans {
		switch {
		case sp.Name == "api.ingest_samples" && sp.TraceID == "t-1":
			request++
		case sp.Name == "api.ingest.release" && slices.Contains(sp.Attrs, telemetry.Attr{Key: "request", Value: "t-1"}):
			released++
		}
	}
	if request != 1 || released == 0 {
		t.Errorf("trace t-1: %d api.ingest_samples spans (want 1), %d api.ingest.release spans (want > 0)", request, released)
	}
}

// TestShutdownUnderLoad drains the node while a client floods it: every
// in-flight batch either lands or is refused with 429/503, Shutdown
// returns, and afterwards ingest is firmly 503 and the node not ready.
func TestShutdownUnderLoad(t *testing.T) {
	node := New(Config{Seed: testSeed, QueueDepth: 8})
	hs := httptest.NewServer(node.Handler())
	defer hs.Close()
	client := hs.Client()

	batch := SampleBatch{Tenant: "t", Instance: "i", Samples: []WireSample{
		{Component: "c", Metric: "m", T: 1, V: 1},
	}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(batch)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(hs.URL+"/v1/ingest/samples", "application/json", bytes.NewReader(body))
				if err != nil {
					return // server closing is fine
				}
				switch resp.StatusCode {
				case http.StatusAccepted, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					t.Errorf("flood got status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}

	node.Shutdown() // must drain and return despite the flood
	close(stop)
	wg.Wait()

	if ok, reason := node.Ready(); ok || reason != "draining" {
		t.Errorf("Ready after Shutdown = %v %q, want draining", ok, reason)
	}
	resp, body := postJSON(t, client, hs.URL+"/v1/ingest/samples", batch)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after shutdown = %d %s, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("503 body should say draining: %s", body)
	}
	// Idempotent.
	node.Shutdown()
}

// TestIdleEvictionBoundsInstances pins the instance lifecycle's leak
// fix: under tenant churn (every batch from a fresh tenant) the
// resident-instance map stays bounded by the idle horizon instead of
// accreting one environment per tenant forever, evictions are counted,
// and an evicted tenant that returns is rebuilt transparently.
func TestIdleEvictionBoundsInstances(t *testing.T) {
	const (
		idle    = 8
		tenants = 40
	)
	node := New(Config{Seed: testSeed, IdleBatches: idle})
	defer node.Shutdown()
	hs := httptest.NewServer(node.Handler())
	defer hs.Close()
	client := hs.Client()

	evictedBefore := node.tel.evicted.Value()
	post := func(tenant string) {
		t.Helper()
		batch := SampleBatch{Tenant: tenant, Instance: "db", Samples: []WireSample{
			{Component: "c", Metric: "m", T: 1, V: 1},
		}}
		if resp, body := postJSON(t, client, hs.URL+"/v1/ingest/samples", batch); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("samples for %s: %d %s", tenant, resp.StatusCode, body)
		}
	}
	for i := 0; i < tenants; i++ {
		post(fmt.Sprintf("tenant-%d", i))
	}
	if err := node.Quiesce(); err != nil {
		t.Fatalf("quiesce: %v", err)
	}

	if got := node.InstanceCount(); got > idle {
		t.Fatalf("resident instances after churn = %d, want <= %d (idle horizon)", got, idle)
	}
	wantEvicted := int64(tenants - idle)
	if got := node.tel.evicted.Value() - evictedBefore; got < wantEvicted {
		t.Errorf("evictions = %d, want >= %d", got, wantEvicted)
	}

	// A returning evicted tenant is rebuilt on next contact.
	post("tenant-0")
	if err := node.Quiesce(); err != nil {
		t.Fatalf("quiesce after return: %v", err)
	}
	n := node
	n.mu.Lock()
	_, resident := n.instances[keyOf("tenant-0", "db")]
	n.mu.Unlock()
	if !resident {
		t.Error("returning tenant-0 was not rebuilt")
	}

	if err := telemetry.ValidateExposition(telemetry.Default().Exposition()); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

// TestIdleSweepAndHeldInstances: the idle sweep leaves an instance
// whose lock is held, however long it has been idle; and a batch that
// fetched its instance and waits for the lock while the sweep evicts
// the instance applies to a freshly built one, not to the evicted one.
func TestIdleSweepAndHeldInstances(t *testing.T) {
	node := New(Config{Seed: testSeed, IdleBatches: 2})
	defer node.Shutdown()
	hs := httptest.NewServer(node.Handler())
	defer hs.Close()
	client, url := hs.Client(), hs.URL+"/v1/ingest/samples"

	held, release := holdInstance(t, node, "a", "db")
	defer release()
	for i := range 2 {
		if c := postStatus(client, url, sampleBody(t, "b", "db", float64(i+1))); c != http.StatusAccepted {
			t.Fatalf("B's batch %d = %d, want 202", i, c)
		}
	}
	if n := node.InstanceCount(); n != 2 {
		t.Fatalf("%d instances resident; the sweep evicted one whose lock is held", n)
	}

	body := sampleBody(t, "a", "db", 1)
	code := make(chan int, 1)
	go func() { code <- postStatus(client, url, body) }()
	waitUntil(t, "A's batch waits on its lock", func() bool { return parkedOnInstances() == 1 })
	node.mu.Lock()
	node.evict(held) // what sweepIdle does to each victim it has locked
	node.mu.Unlock()
	release()
	if c := <-code; c != http.StatusAccepted {
		t.Fatalf("A's batch = %d, want 202", c)
	}
	if n := held.Testbed.Store.Len(); n != 0 {
		t.Errorf("the evicted instance took %d samples", n)
	}
	node.mu.Lock()
	fresh := node.instances[keyOf("a", "db")]
	node.mu.Unlock()
	if fresh == nil || fresh == held || fresh.Testbed.Store.Len() != 1 {
		t.Errorf("A's batch did not land in a fresh resident instance")
	}
}

// TestIdleEvictionUnderConcurrentTenants: tenants post from goroutines
// of their own into a node with a short idle horizon, so instances are
// evicted while other tenants' batches apply. No batch applies to an
// evicted instance: none is refused at apply, every resident tenant's
// diagnosis environment (which each StatsUpdated re-registers) is its
// resident instance's, no evicted tenant keeps one, and every resident
// tenant's store ends with its last batch.
func TestIdleEvictionUnderConcurrentTenants(t *testing.T) {
	const (
		idle    = 4
		tenants = 8
		batches = 12
		step    = 300.0
	)
	node := New(Config{Seed: testSeed, IdleBatches: idle})
	defer node.Shutdown()
	hs := httptest.NewServer(node.Handler())
	defer hs.Close()
	client := hs.Client()
	errs, evicted := node.tel.applyErr.Value(), node.tel.evicted.Value()

	tenantName := func(i int) string { return "churn-" + strconv.Itoa(i) }
	failures := make(chan string, 2*tenants*batches)
	var wg sync.WaitGroup
	for tn := range tenants {
		tenant := tenantName(tn)
		var bodies [][]byte // events, then samples, batch by batch
		for i := range batches {
			at := step * float64(i+1)
			events, err := json.Marshal(EventBatch{Tenant: tenant, Instance: "db", Events: []WireEvent{
				{T: at, Kind: string(topology.EvStatsUpdated), Subject: dbsys.TPartsupp},
			}})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, events, sampleBody(t, tenant, "db", at))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, body := range bodies {
				url := hs.URL + "/v1/ingest/" + [...]string{"events", "samples"}[i%2]
				if code := postStatus(client, url, body); code != http.StatusAccepted {
					failures <- fmt.Sprintf("%s batch %d: %d", tenant, i, code)
				}
			}
		}()
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
	if err := node.Quiesce(); err != nil {
		t.Fatal(err)
	}

	if d := node.tel.applyErr.Value() - errs; d != 0 {
		t.Errorf("%d items refused at apply", d)
	}
	if node.tel.evicted.Value() == evicted {
		t.Fatal("no instance was evicted; the test is vacuous")
	}
	for tn := range tenants {
		id := fleet.ScopedInstance(tenantName(tn), "db")
		node.mu.Lock()
		in := node.instances[keyOfID(id)]
		node.mu.Unlock()
		env, registered := node.svc.EnvFor(id)
		if in == nil {
			if registered {
				t.Errorf("%s was evicted but keeps a diagnosis environment", id)
			}
			continue
		}
		if !registered || env.Store != in.Testbed.Store {
			t.Errorf("%s: diagnosis environment registered %v, not the resident instance's", id, registered)
		}
		s := in.Testbed.Store.Series("c", "m")
		if len(s) == 0 || float64(s[len(s)-1].T) != step*batches {
			t.Errorf("%s: store holds %v, want its last batch's sample at %v last", id, s, step*batches)
		}
	}
}

// TestOperatorRoutes pins the review-gate wiring: resolving a kind with
// no pending candidate is a 409 with the learner's reason, for both the
// bare and mined spellings.
func TestOperatorRoutes(t *testing.T) {
	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	hs := httptest.NewServer(node.Handler())
	defer hs.Close()
	client := hs.Client()

	for _, kind := range []string{"nothing-pending", "nothing-pending" + symptoms.MinedSuffix} {
		resp, body := postJSON(t, client, hs.URL+"/v1/candidates/"+kind+"/ack", struct{}{})
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("ack %s = %d %s, want 409", kind, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "no pending candidate") {
			t.Errorf("ack body: %s", body)
		}
	}
	var cands struct {
		Pending []CandidateView `json:"pending"`
	}
	if resp := getJSON(t, client, hs.URL+"/v1/candidates", &cands); resp.StatusCode != http.StatusOK {
		t.Fatalf("candidates = %d", resp.StatusCode)
	}
}

// TestIngestValidation pins the 400 contract: malformed bodies and
// unusable batches fail at the request, before the intake queue.
func TestIngestValidation(t *testing.T) {
	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	hs := httptest.NewServer(node.Handler())
	defer hs.Close()
	client := hs.Client()

	const trailing = "trailing data after batch"
	cases := []struct {
		url  string
		body string
		want string // in the error, when set
	}{
		{"/v1/ingest/samples", `{not json`, ""},
		{"/v1/ingest/samples", `{"tenant":"t","samples":[]}`, "missing instance"},
		{"/v1/ingest/samples", `{"tenant":"t","instance":"i","samples":[{"metric":"m","t":1,"v":1}]}`, "sample 0"},
		{"/v1/ingest/samples", `{"tenant":"t","instance":"i","bogus":1}`, "unknown field"},
		{"/v1/ingest/runs", `{"tenant":"t","instance":"i","runs":[{"query":"Q2"}]}`, "missing run_id"},
		{"/v1/ingest/runs", `{"tenant":"t","instance":"i","runs":[{"query":"Q2","run_id":"r","start":5,"stop":1}]}`, "before start"},
		{"/v1/ingest/events", `{"tenant":"t","events":[]}`, "missing instance"},
		// A second concatenated batch used to be dropped behind a 202.
		{"/v1/ingest/samples", `{"tenant":"t","instance":"i","samples":[]}` + "\n" + `{"tenant":"t","instance":"i","samples":[]}`, trailing},
		{"/v1/ingest/runs", `{"tenant":"t","instance":"i","runs":[]} {"tenant":"t","instance":"i","runs":[]}`, trailing},
		{"/v1/ingest/events", `{"tenant":"t","instance":"i","events":[]}{"tenant":"t","instance":"i","events":[]}`, trailing},
		{"/v1/ingest/samples", `{"tenant":"t","instance":"i","samples":[]}]`, trailing},
		// Mutation payloads that cannot apply.
		{"/v1/ingest/events", `{"tenant":"t","instance":"i","events":[{"kind":"VolumeCreated","subject":"v","pool":"pool-P1","size_gb":8}]}`, "event 0: VolumeCreated in pool pool-P1 needs a name"},
		{"/v1/ingest/events", `{"tenant":"t","instance":"i","events":[{"kind":"WorkloadStarted"},{"kind":"VolumeCreated","subject":"v","pool":"pool-P1","name":"V","size_gb":-1}]}`, "event 1: VolumeCreated"},
		{"/v1/ingest/events", `{"tenant":"t","instance":"i","events":[{"kind":"DMLBatch","factor":2}]}`, "DMLBatch needs a table subject"},
		{"/v1/ingest/events", `{"tenant":"t","instance":"i","events":[{"kind":"DMLBatch","subject":"partsupp"}]}`, "finite positive factor"},
		{"/v1/ingest/events", `{"tenant":"t","instance":"i","events":[{"kind":"DMLBatch","subject":"partsupp","factor":-0.5}]}`, "finite positive factor"},
		{"/v1/ingest/events", `{"tenant":"t","instance":"i","events":[{"kind":"ParamChanged","value":3}]}`, "ParamChanged needs a known parameter subject"},
		{"/v1/ingest/events", `{"tenant":"t","instance":"i","events":[{"kind":"ParamChanged","subject":"no_such_param","value":3}]}`, "ParamChanged needs a known parameter subject"},
		{"/v1/ingest/events", `{"tenant":"t","instance":"i","events":[{"kind":"ParamChanged","subject":"work_mem","value":1e999}]}`, "parsing batch"},
		{"/v1/ingest/events", `{"tenant":"t","instance":"i","events":[{"kind":"IndexDropped"}]}`, "IndexDropped needs an index subject"},
		{"/v1/ingest/events", `{"tenant":"t","instance":"i","events":[{"kind":"IndexCreated","detail":"x"}]}`, "IndexCreated needs an index subject"},
	}
	for _, c := range cases {
		resp, err := client.Post(hs.URL+c.url, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("POST %s: %v", c.url, err)
		}
		var reply ErrorReply
		_ = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s = %d, want 400", c.url, c.body, resp.StatusCode)
		}
		if !strings.Contains(reply.Error, c.want) {
			t.Errorf("%s %s: error %q, want it to mention %q", c.url, c.body, reply.Error, c.want)
		}
	}
	// JSON cannot spell a non-finite number; the Go door can.
	for _, we := range []WireEvent{
		{Kind: "ParamChanged", Subject: "work_mem", Value: math.NaN()},
		{Kind: "ParamChanged", Subject: "work_mem", Value: math.Inf(-1)},
		{Kind: "DMLBatch", Subject: "partsupp", Factor: math.Inf(1)},
		{Kind: "DMLBatch", Subject: "partsupp", Factor: math.NaN()},
	} {
		if err := (&EventBatch{Instance: "i", Events: []WireEvent{we}}).validate(); err == nil {
			t.Errorf("%s %v/%v validated", we.Kind, we.Value, we.Factor)
		}
	}
	// Unknown and payload-less kinds are accepted and logged, and so is
	// every event shape the benchmark fixture posts.
	for _, body := range []string{
		`{"tenant":"t","instance":"i","events":[{"t":1,"kind":"SomethingNew","subject":"x"},{"t":2,"kind":"VolumeCreated","subject":"v"},{"t":3,"kind":"StatsUpdated"}]}`,
		`{"tenant":"t","instance":"i","events":[{"t":14700,"kind":"VolumeCreated","subject":"vol-Vp","detail":"volume V' created in pool-P1","pool":"pool-P1","name":"V'","size_gb":80},` +
			`{"t":14730,"kind":"ZoneCreated","subject":"vol-Vp","detail":"zoning for host srv-app1"},` +
			`{"t":14760,"kind":"LUNMapped","subject":"vol-Vp","detail":"LUN mapped to host srv-app1","server":"srv-app1"},` +
			`{"t":14820,"kind":"WorkloadStarted","subject":"vol-Vp","detail":"external workload started on V'"}]}`,
	} {
		if resp, reply := postJSON(t, client, hs.URL+"/v1/ingest/events", json.RawMessage(body)); resp.StatusCode != http.StatusAccepted {
			t.Errorf("%s = %d %s, want 202", body, resp.StatusCode, reply)
		}
	}

	// Whitespace after the batch is not data.
	resp, body := postJSON(t, client, hs.URL+"/v1/ingest/samples", json.RawMessage(
		`{"tenant":"t","instance":"i","samples":[]}`+" \r\n\t"))
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("batch with trailing whitespace = %d %s, want 202", resp.StatusCode, body)
	}
}

// TestScopedInstance pins the tenant-scoping helpers.
func TestScopedInstance(t *testing.T) {
	if got := fleet.ScopedInstance("acme", "db-1"); got != "acme/db-1" {
		t.Errorf("ScopedInstance = %q", got)
	}
	if got := fleet.ScopedInstance("", "db-1"); got != "db-1" {
		t.Errorf("unscoped = %q", got)
	}
	tenant, inst := fleet.SplitScoped("acme/db-1")
	if tenant != "acme" || inst != "db-1" {
		t.Errorf("SplitScoped = %q %q", tenant, inst)
	}
	tenant, inst = fleet.SplitScoped("bare")
	if tenant != "" || inst != "bare" {
		t.Errorf("SplitScoped bare = %q %q", tenant, inst)
	}
	// Instance names may contain the separator; tenants may not.
	tenant, inst = fleet.SplitScoped("acme/db/replica-1")
	if tenant != "acme" || inst != "db/replica-1" {
		t.Errorf("SplitScoped nested = %q %q", tenant, inst)
	}
	// The node's instance key names the same instance exactly when the
	// scoped ID does, however the pair spells it.
	pairs := [][2]string{
		{"acme", "db-1"}, {"", "acme/db-1"}, {"acme/db", "1"}, {"acme", "db/1"},
		{"", "acme/db/1"}, {"", "db-1"}, {"", "/db-1"}, {"/", "db-1"}, {"acme/", "db-1"},
	}
	for _, a := range pairs {
		for _, b := range pairs {
			sameID := fleet.ScopedInstance(a[0], a[1]) == fleet.ScopedInstance(b[0], b[1])
			if sameKey := keyOf(a[0], a[1]) == keyOf(b[0], b[1]); sameKey != sameID {
				t.Errorf("%q and %q: same key %v, same scoped ID %v", a, b, sameKey, sameID)
			}
		}
	}
	_ = service.ErrBackpressure // the pool semantics ingest mirrors
}

// TestIngestPlateau is the retention acceptance test on the HTTP door: a
// healthy tenant posts a week of evidence — more than ten lengths of the
// monitor's 16-hour ring — hour by hour, and once the ring has filled
// the tenant's store stops growing: after the second day it never holds
// more than 1.25 × the second day's peak. diads_store_samples_live moves
// by exactly what the store holds.
func TestIngestPlateau(t *testing.T) {
	env := simulateClient(t, experiments.OnlineSpec{Seed: testSeed, Runs: 336, NoFault: true})
	tb := env.Testbed
	runs := tb.Runs
	samples := storeSamples(tb)

	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	h := node.Handler()
	post := func(path string, batch any) {
		t.Helper()
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST %s = %d %s", path, rec.Code, rec.Body)
		}
	}
	exposed := func() int {
		t.Helper()
		expo := telemetry.Default().Exposition()
		if err := telemetry.ValidateExposition(expo); err != nil {
			t.Fatal(err)
		}
		_, rest, _ := bytes.Cut(expo, []byte("\ndiads_store_samples_live "))
		line, _, _ := bytes.Cut(rest, []byte("\n"))
		n, err := strconv.Atoi(string(line))
		if err != nil {
			t.Fatalf("diads_store_samples_live = %q: %v", line, err)
		}
		return n
	}

	base, truncated := exposed(), metrics.TruncatedTotal()
	day2, after, posted := 0, 0, 0
	end := tb.Horizon.End.Add(metrics.DefaultMonitorInterval)
	for now := simtime.Time(0); now < end; {
		now = min(now.Add(simtime.Hour), end)
		var wire []WireRun
		for ; len(runs) > 0 && runs[0].Stop <= now; runs = runs[1:] {
			wire = append(wire, WireRunOf(runs[0]))
		}
		post("/v1/ingest/runs", RunBatch{Tenant: "acme", Instance: "db-1", Runs: wire})
		n := sort.Search(len(samples), func(i int) bool { return samples[i].T > float64(now) })
		watermark := float64(now)
		post("/v1/ingest/samples", SampleBatch{Tenant: "acme", Instance: "db-1", Samples: samples[:n], Watermark: &watermark})
		samples, posted = samples[n:], posted+n
		if err := node.Quiesce(); err != nil {
			t.Fatal(err)
		}

		node.mu.Lock()
		live := node.instances[keyOf("acme", "db-1")].Testbed.Store.Len()
		node.mu.Unlock()
		if got := exposed() - base; got != live {
			t.Fatalf("at %s the store holds %d samples, diads_store_samples_live moved by %d", now.Clock(), live, got)
		}
		switch {
		case now <= simtime.Time(simtime.Day):
		case now <= simtime.Time(2*simtime.Day):
			day2 = max(day2, live)
		default:
			after = max(after, live)
		}
	}
	t.Logf("posted %d samples; day-2 peak %d live, later peak %d", posted, day2, after)
	if day2 == 0 || float64(after) > 1.25*float64(day2) {
		t.Errorf("store peaks at %d samples after day 2, %d during it: no plateau", after, day2)
	}
	if posted < 5*after {
		t.Errorf("posted %d samples against a plateau of %d: the stream is too short to show one", posted, after)
	}
	if metrics.TruncatedTotal() == truncated {
		t.Error("nothing was truncated")
	}
}
