package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"diads/internal/diag"
	"diads/internal/experiments"
	"diads/internal/monitor"
	"diads/internal/simtime"
	"diads/internal/symptoms"
)

// The accept path's own rows (ROADMAP 1b): one request through
// Node.Handler on an in-memory recorder — middleware, body read,
// decode, validation, enqueue — with no socket and no client. MB/s is
// body bytes accepted per second; allocs/op is per batch.
//
// The intake worker is parked while the clock runs, so ns/op and the
// process-wide allocation counts are the handler's alone; every
// benchWindow posts the clock stops and the worker drains the queue.
// The store accepts a sample no older than its series' last one, so the
// sample benchmark first posts every series once at a later time: what
// the drains apply is then refused and the node does not grow. Refusing
// costs the worker several times what accepting does, so a run's wall
// time is mostly untimed drain, and a -cpuprofile of it is mostly
// applySamples: read the handler's subtree, not the percentages.
//
// The loop runs to b.N rather than b.Loop: Go 1.24's b.Loop measures
// its time budget from the last StartTimer, so a loop that stops the
// clock every benchWindow posts never reaches the budget and keeps
// raising N. The b.N loop is scaled on the accumulated timed duration.

const benchWindow = 512

// benchSampleBody is a 256-sample batch shaped like a monitoring
// agent's: 8 components × 4 metrics, full-precision values, times
// starting at t0.
func benchSampleBody(b testing.TB, t0 float64) []byte {
	batch := SampleBatch{Tenant: "acme", Instance: "db-1"}
	for i := range 256 {
		batch.Samples = append(batch.Samples, WireSample{
			Component: fmt.Sprintf("vol-V%d", i%8),
			Metric:    []string{"readTime", "writeTime", "readIO", "writeIO"}[i/8%4],
			T:         t0 + float64(300*(i/32)),
			V:         math.Sqrt(float64(i + 1)),
		})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// benchRunBody is a 16-run batch of 8 operators each, the runs 600 s
// apart from t0.
func benchRunBody(b testing.TB, t0 float64) []byte {
	batch := RunBatch{Tenant: "acme", Instance: "db-1"}
	for r := range 16 {
		start := t0 + float64(600*r)
		run := WireRun{
			Query: "Q2", RunID: fmt.Sprintf("run-Q2-%03d", int(start)/600),
			Start: start, Stop: start + math.Sqrt(float64(r+2)),
			PhysIO: 1849.96 + float64(r), CacheHit: 29064.79, SeqScans: 4, IdxScans: 5,
		}
		for id := 1; id <= 8; id++ {
			run.Ops = append(run.Ops, WireOp{
				ID: id, Type: "IndexScan", Table: "partsupp",
				Start: start, Stop: start + math.Sqrt(float64(id)), Recorded: math.Sqrt(float64(id)),
				ActRows: 800, EstRows: 812.5, PhysIO: 231.25 * float64(id), CacheHit: 0.93, IOTime: 1 / float64(id+2),
			})
		}
		batch.Runs = append(batch.Runs, run)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func benchAccept(b *testing.B, route string, body []byte, prime []byte) {
	node := New(Config{Seed: testSeed, QueueDepth: benchWindow})
	defer node.Shutdown()
	h := node.Handler()
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			b.Fatalf("POST %s = %d %s", route, rec.Code, rec.Body)
		}
	}
	if prime != nil {
		post(prime)
	}
	drain := func() {
		if err := node.Quiesce(); err != nil {
			b.Fatal(err)
		}
	}
	drain()
	resume := stallWorker(b, node)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if i > 0 && i%benchWindow == 0 {
			b.StopTimer()
			resume()
			drain()
			resume = stallWorker(b, node)
			b.StartTimer()
		}
		post(body)
	}
	b.StopTimer()
	resume()
}

func BenchmarkAcceptSamples(b *testing.B) {
	benchAccept(b, "/v1/ingest/samples", benchSampleBody(b, 0), benchSampleBody(b, 1e9))
}

func BenchmarkAcceptRuns(b *testing.B) {
	benchAccept(b, "/v1/ingest/runs", benchRunBody(b, 0), nil)
}

// BenchmarkScanSamples times the scanner alone — no handler, no
// validation, no intake — on a simulated day's samples marshalled the
// way an agent posts them, 256 to a batch. Unlike benchSampleBody's
// math.Sqrt values (16–17 digits, more than half past exactFloat, on
// divFloat) these carry the fixture's real mix of short and
// full-precision numbers. One op is one batch; MB/s is body bytes
// scanned.
func BenchmarkScanSamples(b *testing.B) {
	env := simulateClient(b, experiments.OnlineSpec{Seed: testSeed, Runs: 16})
	samples := storeSamples(env.Testbed)
	var bodies [][]byte
	size := 0
	for lo := 0; lo < len(samples); lo += 256 {
		body, err := json.Marshal(SampleBatch{Tenant: "acme", Instance: "db-1", Samples: samples[lo:min(lo+256, len(samples))]})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
		size += len(body)
	}
	sc := newScanner()
	var batch SampleBatch
	b.SetBytes(int64(size / len(bodies)))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if !sc.sampleBatch(bodies[i], &batch) {
			b.Fatalf("scanner declined batch %d", i)
		}
		i = (i + 1) % len(bodies)
	}
}

// BenchmarkScanRuns is BenchmarkScanSamples' twin for the run half: the
// same simulated day's runs, 16 to a batch as the example client flushes
// them, through the scanner alone. One op is one batch; its allocations
// are the batch's Runs and Ops arrays and its run IDs.
func BenchmarkScanRuns(b *testing.B) {
	env := simulateClient(b, experiments.OnlineSpec{Seed: testSeed, Runs: 16})
	var bodies [][]byte
	size := 0
	for lo := 0; lo < len(env.Testbed.Runs); lo += 16 {
		batch := RunBatch{Tenant: "acme", Instance: "db-1"}
		for _, rec := range env.Testbed.Runs[lo:min(lo+16, len(env.Testbed.Runs))] {
			batch.Runs = append(batch.Runs, WireRunOf(rec))
		}
		body, err := json.Marshal(batch)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
		size += len(body)
	}
	sc := newScanner()
	b.SetBytes(int64(size / len(bodies)))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		var batch RunBatch
		if !sc.runBatch(bodies[i], &batch) {
			b.Fatalf("scanner declined batch %d", i)
		}
		i = (i + 1) % len(bodies)
	}
}

// BenchmarkIncidentDetail times GET /v1/incidents/{id} through Handler
// on a recorder against a registry of 128 open incidents, each with
// three ranked causes, cycling through their IDs: the registry lookup,
// the view and the JSON reply.
func BenchmarkIncidentDetail(b *testing.B) {
	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	reg := node.Service().Registry()
	for i := range 128 {
		var causes []symptoms.CauseInstance
		for c := range 3 {
			causes = append(causes, symptoms.CauseInstance{
				Kind: "cause-" + strconv.Itoa(c), Subject: "vol-V" + strconv.Itoa(i%16),
				Confidence: 90 - 10*float64(c), Category: symptoms.High,
			})
		}
		res := &diag.Result{
			Query: "Q2", PD: &diag.PDResult{}, Causes: causes,
			IA: &diag.IAResult{Items: []diag.ImpactItem{{Cause: causes[0], Score: 50}}},
		}
		at := simtime.Time(600 * (i + 1))
		reg.Record(monitor.SlowdownEvent{
			Instance: "tenant-" + strconv.Itoa(i/8) + "/db-1", Query: "Q2", RunID: "r" + strconv.Itoa(i),
			At: at, Duration: 120, Baseline: 60, Window: simtime.NewInterval(at-600, at),
		}, res)
	}
	incs := reg.Incidents()
	if len(incs) < 100 {
		b.Fatalf("registry holds %d incidents, want at least 100", len(incs))
	}
	h := node.Handler()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/incidents/"+incs[i].ID(), nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET incident = %d %s", rec.Code, rec.Body)
		}
		i = (i + 1) % len(incs)
	}
}
