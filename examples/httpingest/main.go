// Httpingest: DIADS as a service, end to end over HTTP. A diadsd
// started with -listen serves the ingest/query/operator API; this
// client plays the monitored system. It simulates the Figure 1 SAN
// misconfiguration scenario locally — standing in for a real database
// plus storage stack — then serializes what real monitoring agents
// would capture and POSTs it: the configuration events of the
// misconfiguration, every completed query run, and every metric sample,
// closing with a watermark that releases the gated diagnoses. It then
// polls /v1/incidents until the server-side diagnosis names the root
// cause from posted evidence alone.
//
// Run against a live daemon:
//
//	diadsd -listen 127.0.0.1:8080 &
//	go run ./examples/httpingest -addr http://127.0.0.1:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"sort"
	"time"

	"diads/internal/api"
	"diads/internal/experiments"
	"diads/internal/metrics"
	"diads/internal/simtime"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of a diadsd -listen server")
	seed := flag.Int64("seed", 11, "client-side simulation seed")
	runs := flag.Int("runs", 16, "Q2 runs to simulate (other queries scale along)")
	tenant := flag.String("tenant", "acme", "tenant to post as")
	instance := flag.String("instance", "db-1", "instance to post as")
	flag.Parse()

	// The "real system": simulate the online scenario locally with the
	// monitor detached — runs travel over the wire instead.
	env, err := experiments.BuildOnline(experiments.OnlineSpec{Seed: *seed, Runs: *runs})
	if err != nil {
		log.Fatal(err)
	}
	tb := env.Testbed
	tb.Engine.OnRunComplete = nil
	if err := tb.Simulate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated client workload: %d runs, fault onset %s\n", len(tb.Runs), env.Onset.Clock())

	// 1. Configuration events: the client's change log, the
	// misconfiguration as a storage management stack would report it.
	var events []api.WireEvent
	for _, e := range tb.Cfg.Log.All() {
		events = append(events, api.WireEventOf(e))
	}
	post(*addr+"/v1/ingest/events", api.EventBatch{Tenant: *tenant, Instance: *instance, Events: events})
	fmt.Printf("posted %d configuration events\n", len(events))

	// 2. Run records, batched like a monitoring agent flush.
	wire := make([]api.WireRun, 0, len(tb.Runs))
	for _, rec := range tb.Runs {
		wire = append(wire, api.WireRunOf(rec))
	}
	for i := 0; i < len(wire); i += 16 {
		end := min(i+16, len(wire))
		post(*addr+"/v1/ingest/runs", api.RunBatch{Tenant: *tenant, Instance: *instance, Runs: wire[i:end]})
	}
	fmt.Printf("posted %d runs\n", len(wire))

	// 3. Metric samples in global time order; the final batch carries an
	// explicit watermark past every detection's read window, releasing
	// the gated events into diagnosis.
	var samples []api.WireSample
	for _, k := range tb.Store.Keys() {
		for _, s := range tb.Store.Series(k.Component, k.Metric) {
			samples = append(samples, api.WireSampleOf(k.Component, k.Metric, s))
		}
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].T < samples[j].T })
	//lint:allow readwindow watermark margin past every possible read window, not a read window itself
	final := float64(env.Horizon.Add(2 * metrics.DefaultMonitorInterval))
	for i := 0; i < len(samples); i += 4096 {
		end := min(i+4096, len(samples))
		b := api.SampleBatch{Tenant: *tenant, Instance: *instance, Samples: samples[i:end]}
		if end == len(samples) {
			b.Watermark = &final
		}
		post(*addr+"/v1/ingest/samples", b)
	}
	fmt.Printf("posted %d samples, watermark %s\n", len(samples), simtime.Time(final).Clock())

	// Poll until the server-side diagnosis surfaces the incident.
	answer := env.Fault.Answer(tb)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var list struct {
			Incidents []api.IncidentView `json:"incidents"`
		}
		get(*addr+"/v1/incidents?tenant="+*tenant, &list)
		for _, inc := range list.Incidents {
			if !experiments.Named(inc.Kind, inc.Subject, answer) {
				continue
			}
			fmt.Printf("\ndiagnosed from posted evidence alone:\n")
			fmt.Printf("  %s/%s %s: %s(%s) confidence=%.0f impact=%.1fs events=%d\n",
				inc.Tenant, inc.Instance, inc.Query, inc.Kind, inc.Subject,
				inc.Confidence, inc.EstImpact, inc.Events)
			fmt.Printf("  trace: %s/traces?trace=%s\n", *addr, inc.TraceID)
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("no incident names one of %v within 30s; got %+v", answer, list.Incidents)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// post sends one JSON batch and insists on 202 — backpressure (429) is
// retried, anything else is fatal.
func post(url string, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	for {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatalf("POST %s: %v", url, err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			return
		case http.StatusTooManyRequests:
			time.Sleep(100 * time.Millisecond) // honor the bounded queue
		default:
			log.Fatalf("POST %s: %d %s", url, resp.StatusCode, buf.String())
		}
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatalf("GET %s: decoding: %v", url, err)
	}
}
