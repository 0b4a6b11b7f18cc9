package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"diads/internal/api"
	"diads/internal/metrics"
	"diads/internal/telemetry"
	"diads/internal/testbed"
)

// TestCrossModeEquivalence pins that the same evidence yields the same
// ranked causes whichever door it comes through: the single-instance
// online driver, a one-instance fleet with learning off, and HTTP ingest
// into an api.Node all advance the same instance runtime. Online and
// fleet share a simulator, so their rankings must agree exactly; the
// HTTP node diagnoses against its own Figure 1 environment mutated by
// the posted configuration events, so it is held to the top incident's
// identity and event count.
func TestCrossModeEquivalence(t *testing.T) {
	online, err := Online(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !online.Correct {
		t.Fatalf("online run did not diagnose the fault:\n%s", online.Render())
	}
	var want []string
	for _, inc := range online.Incidents {
		want = append(want, fmt.Sprintf("%s %s(%s) events=%d impact=%.3f",
			inc.Query, inc.Kind, inc.Subject, inc.Events, inc.EstImpact()))
	}

	rep, _, err := RunFleetSpec(FleetSpec{Seed: testSeed, Instances: 1, Degraded: 1, LearnOff: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range rep.Groups {
		got = append(got, fmt.Sprintf("%s %s(%s) events=%d impact=%.3f",
			g.Queries[0], g.Kind, g.Subject, g.Events, g.TotalImpact))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fleet ranks different incidents than the online driver\n online %v\n fleet  %v", want, got)
	}

	top := httpIncidents(t, testSeed)[0]
	if o := online.Incidents[0]; top.Query != o.Query || top.Kind != o.Kind ||
		top.Subject != o.Subject || top.Events != o.Events {
		t.Errorf("HTTP top incident = %s %s(%s) over %d events, online = %s %s(%s) over %d",
			top.Query, top.Kind, top.Subject, top.Events, o.Query, o.Kind, o.Subject, o.Events)
	}
}

// httpIncidents simulates the online scenario with the monitor detached,
// posts its configuration events, runs and samples to a fresh api.Node in
// the order the ingest contract requires, and returns the ranked
// incidents read back over the query route.
func httpIncidents(t *testing.T, seed int64) []api.IncidentView {
	t.Helper()
	env, err := BuildOnline(OnlineSpec{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tb := env.Testbed
	tb.Engine.OnRunComplete = nil // runs travel over the wire instead
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	node := api.New(api.Config{Seed: seed})
	defer node.Shutdown()
	post := func(path string, batch any) {
		t.Helper()
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST %s = %d %s", path, rec.Code, rec.Body)
		}
	}

	at := float64(env.Onset)
	post("/v1/ingest/events", api.EventBatch{Tenant: "acme", Instance: "db-1", Events: []api.WireEvent{
		{T: at, Kind: "VolumeCreated", Subject: "vol-Vp", Pool: string(testbed.PoolP1), Name: "V'", SizeGB: 80},
		{T: at + 60, Kind: "LUNMapped", Subject: "vol-Vp", Server: string(testbed.ServerApp1)},
	}})
	runs := make([]api.WireRun, 0, len(tb.Runs))
	for _, rec := range tb.Runs {
		runs = append(runs, api.WireRunOf(rec))
	}
	post("/v1/ingest/runs", api.RunBatch{Tenant: "acme", Instance: "db-1", Runs: runs})
	var samples []api.WireSample
	for _, k := range tb.Store.Keys() {
		for _, s := range tb.Store.Series(k.Component, k.Metric) {
			samples = append(samples, api.WireSampleOf(k.Component, k.Metric, s))
		}
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].T < samples[j].T })
	final := float64(tb.Horizon.End.Add(metrics.DefaultMonitorInterval))
	post("/v1/ingest/samples", api.SampleBatch{Tenant: "acme", Instance: "db-1", Samples: samples, Watermark: &final})
	if err := node.Quiesce(); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/incidents", nil))
	var list struct {
		Incidents []api.IncidentView `json:"incidents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list.Incidents) == 0 {
		t.Fatalf("GET /v1/incidents = %d %s (%v)", rec.Code, rec.Body, err)
	}
	return list.Incidents
}

// TestDesignListsEveryMetricFamily keeps DESIGN.md's "Metric families"
// table honest: every family registered once the online scenario and an
// HTTP ingest have run (plus whatever other tests of this package
// registered before) must appear there by its exact name.
func TestDesignListsEveryMetricFamily(t *testing.T) {
	if _, err := Online(testSeed); err != nil {
		t.Fatal(err)
	}
	httpIncidents(t, testSeed)
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "### Metric families")
	if !ok {
		t.Fatal(`DESIGN.md has no "### Metric families" section`)
	}
	table, _, _ = strings.Cut(table, "\n### ")
	for _, fam := range telemetry.Default().Snapshot() {
		if !strings.Contains(table, "`"+fam.Name+"`") {
			t.Errorf("DESIGN.md \"Metric families\" does not list `%s` (%s)", fam.Name, fam.Help)
		}
	}
}
