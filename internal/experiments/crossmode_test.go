package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"diads/internal/api"
	"diads/internal/diag"
	"diads/internal/faults"
	"diads/internal/fleet"
	"diads/internal/metrics"
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
)

// TestCrossModeEquivalence pins that the same evidence yields the same
// ranked causes whichever door it comes through, for every fault family:
// the online driver (30-minute chunks, retention on), a one-instance
// fleet with learning off (its default chunks, retention off), and HTTP
// ingest into an api.Node, posted whole and in 30-minute steps. Online
// and fleet share a simulator, so their rankings must agree exactly; the
// HTTP node diagnoses against its own Figure 1 environment changed by the
// posted change log, so it is held to the top incident's identity and
// event count, with no diagnosis failed and no posted run disagreeing
// with the plan the node reconstructed for it. Every door's top cause
// must be in the fault's answer.
func TestCrossModeEquivalence(t *testing.T) {
	for _, fam := range faultFamilies {
		t.Run(fam.name, func(t *testing.T) {
			spec := OnlineSpec{Seed: testSeed, Fault: fam.fault}
			online, err := RunOnline(spec, 30*simtime.Minute, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !online.Correct {
				t.Fatalf("online run did not diagnose the fault:\n%s", online.Render())
			}
			want := incidentTuples(online.Incidents)

			rep, _, err := RunFleetSpec(FleetSpec{Seed: spec.Seed, Instances: 1, Degraded: 1, Fault: fam.fault, LearnOff: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := groupTuples(rep); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("fleet ranks different incidents than the online driver\n online %v\n fleet  %v", want, got)
			}

			env, err := BuildOnline(spec)
			if err != nil {
				t.Fatal(err)
			}
			answer := env.Fault.Answer(env.Testbed)
			o := online.Incidents[0]
			for _, step := range []simtime.Duration{0, 30 * simtime.Minute} {
				mismatches := planMismatches()
				incs, failed := httpIncidents(t, spec, step)
				if n := planMismatches() - mismatches; n != 0 {
					t.Errorf("step %v: %v posted runs disagree with the node's plan", step, n)
				}
				top := incs[0]
				if top.Query != o.Query || top.Kind != o.Kind || top.Subject != o.Subject || top.Events != o.Events {
					t.Errorf("step %v: HTTP top incident = %s %s(%s) over %d events, online = %s %s(%s) over %d",
						step, top.Query, top.Kind, top.Subject, top.Events, o.Query, o.Kind, o.Subject, o.Events)
				}
				if !Named(top.Kind, top.Subject, answer) {
					t.Errorf("step %v: HTTP top incident %s(%s) is not in the fault's answer", step, top.Kind, top.Subject)
				}
				if failed != 0 {
					t.Errorf("step %v: %d HTTP diagnoses failed", step, failed)
				}
			}
		})
	}

	t.Run("under-retention", crossModeUnderRetention)
}

// crossModeUnderRetention is the same property on a stream long enough
// for retention to fire on the two doors that truncate: three days
// through the online driver (retaining at its barriers) and through HTTP
// ingest (retaining behind the pool's in-flight floor) — posted hour by
// hour with no Quiesce in between, so diagnoses race further ingest and
// the truncation it sets off — must rank exactly what a one-instance
// fleet with retention off, which never truncates, ranks.
func crossModeUnderRetention(t *testing.T) {
	spec := OnlineSpec{Seed: testSeed, Runs: 144}
	rep, _, err := RunFleetSpec(FleetSpec{Seed: spec.Seed, Instances: 1, Degraded: 1, Runs: spec.Runs, LearnOff: true})
	if err != nil {
		t.Fatal(err)
	}
	want := groupTuples(rep)
	if len(want) == 0 {
		t.Fatal("the never-truncating reference diagnosed nothing")
	}

	truncated := metrics.TruncatedTotal()
	online, err := RunOnline(spec, 30*simtime.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.TruncatedTotal() == truncated {
		t.Error("the online driver truncated nothing; the check is vacuous")
	}
	if got := incidentTuples(online.Incidents); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("online driver under retention ranks differently\n reference %v\n online    %v", want, got)
	}

	truncated = metrics.TruncatedTotal()
	incs, _ := httpIncidents(t, spec, simtime.Hour)
	got := viewTuples(incs)
	if metrics.TruncatedTotal() == truncated {
		t.Error("HTTP ingest truncated nothing; the check is vacuous")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("HTTP ingest under retention ranks differently\n reference %v\n http      %v", want, got)
	}
}

// incidentTuple is what the doors are compared on.
func incidentTuple(query, kind, subject string, events int, impact float64) string {
	return fmt.Sprintf("%s %s(%s) events=%d impact=%.3f", query, kind, subject, events, impact)
}

func incidentTuples(incs []service.Incident) []string {
	var out []string
	for _, inc := range incs {
		out = append(out, incidentTuple(inc.Query, inc.Kind, inc.Subject, inc.Events, inc.EstImpact()))
	}
	return out
}

func groupTuples(rep *fleet.Report) []string {
	var out []string
	for _, g := range rep.Groups {
		out = append(out, incidentTuple(g.Queries[0], g.Kind, g.Subject, g.Events, g.TotalImpact))
	}
	return out
}

// simulateClient simulates the online scenario with the monitor
// detached: the "real system" whose runs travel over the wire instead.
func simulateClient(t *testing.T, spec OnlineSpec) *OnlineEnv {
	t.Helper()
	env, err := BuildOnline(spec)
	if err != nil {
		t.Fatal(err)
	}
	env.Testbed.Engine.OnRunComplete = nil
	if err := env.Testbed.Simulate(); err != nil {
		t.Fatal(err)
	}
	return env
}

// streamHTTP replays a simulated client into the node as tenant/db-1:
// the client's whole change log first (each change takes effect at its
// own time), then, step by step, the runs that completed by the
// boundary and the samples taken up to it, the boundary being the
// batch's watermark; step 0 is the whole stream at once. Nothing
// settles between POSTs: diagnoses race further ingest. It stops at the
// first POST not answered 202 (applied) and returns why.
func streamHTTP(node *api.Node, env *OnlineEnv, tenant string, step simtime.Duration) error {
	h := node.Handler()
	post := func(path string, batch any) error {
		body, err := json.Marshal(batch)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("%s: POST %s = %d %s", tenant, path, rec.Code, rec.Body)
		}
		return nil
	}
	tb := env.Testbed
	var events []api.WireEvent
	for _, e := range tb.Cfg.Log.All() {
		events = append(events, api.WireEventOf(e))
	}
	if err := post("/v1/ingest/events", api.EventBatch{Tenant: tenant, Instance: "db-1", Events: events}); err != nil {
		return err
	}
	runs := slices.Clone(tb.Runs)
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Stop < runs[j].Stop })
	var samples []api.WireSample
	for _, k := range tb.Store.Keys() {
		for _, s := range tb.Store.Series(k.Component, k.Metric) {
			samples = append(samples, api.WireSampleOf(k.Component, k.Metric, s))
		}
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].T < samples[j].T })

	end := tb.Horizon.End.Add(metrics.DefaultMonitorInterval)
	if step == 0 {
		step = simtime.Duration(end)
	}
	for now := simtime.Time(0); now < end; {
		now = min(now.Add(step), end)
		var wire []api.WireRun
		for ; len(runs) > 0 && runs[0].Stop <= now; runs = runs[1:] {
			wire = append(wire, api.WireRunOf(runs[0]))
		}
		if len(wire) > 0 {
			if err := post("/v1/ingest/runs", api.RunBatch{Tenant: tenant, Instance: "db-1", Runs: wire}); err != nil {
				return err
			}
		}
		n := sort.Search(len(samples), func(i int) bool { return samples[i].T > float64(now) })
		watermark := float64(now)
		if err := post("/v1/ingest/samples", api.SampleBatch{Tenant: tenant, Instance: "db-1", Samples: samples[:n], Watermark: &watermark}); err != nil {
			return err
		}
		samples = samples[n:]
	}
	return nil
}

// httpIncidents streams the spec's scenario into a fresh api.Node,
// settles it, and returns the ranked incidents read back over the query
// route and how many diagnoses failed.
func httpIncidents(t *testing.T, spec OnlineSpec, step simtime.Duration) ([]api.IncidentView, int64) {
	t.Helper()
	node := api.New(api.Config{Seed: spec.Seed})
	defer node.Shutdown()
	if err := streamHTTP(node, simulateClient(t, spec), "acme", step); err != nil {
		t.Fatal(err)
	}
	if err := node.Quiesce(); err != nil {
		t.Fatal(err)
	}
	return tenantIncidents(t, node, ""), node.Service().Stats().Failed
}

// tenantIncidents reads the node's ranked incidents over the query
// route, the tenant's alone unless tenant is empty, and fails the test
// when there are none.
func tenantIncidents(t *testing.T, node *api.Node, tenant string) []api.IncidentView {
	t.Helper()
	rec := httptest.NewRecorder()
	node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/incidents?tenant="+tenant, nil))
	var list struct {
		Incidents []api.IncidentView `json:"incidents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list.Incidents) == 0 {
		t.Fatalf("GET /v1/incidents?tenant=%s = %d %s (%v)", tenant, rec.Code, rec.Body, err)
	}
	return list.Incidents
}

func viewTuples(incs []api.IncidentView) []string {
	var out []string
	for _, inc := range incs {
		out = append(out, incidentTuple(inc.Query, inc.Kind, inc.Subject, inc.Events, inc.EstImpact))
	}
	return out
}

// TestConcurrentTenantsMatchAlone is the cross-door property under
// concurrency: the nine fault families posted at once into one node, as
// nine tenants with one goroutine each, rank for every tenant exactly
// the incidents its family ranks when it is posted alone. Batches of
// different instances apply in parallel, so this is what holds their
// evidence, changes and diagnoses apart. It holds at the default pool
// and at a two-slot queue with one worker: a full queue makes a
// tenant's batch wait for space, never drops its detection, so the
// pool's size moves wall time only.
func TestConcurrentTenantsMatchAlone(t *testing.T) {
	const step = 30 * simtime.Minute
	envs := make([]*OnlineEnv, len(faultFamilies))
	want := make([][]string, len(faultFamilies))
	for i, fam := range faultFamilies {
		spec := OnlineSpec{Seed: testSeed, Fault: fam.fault}
		incs, _ := httpIncidents(t, spec, step)
		want[i] = viewTuples(incs)
		envs[i] = simulateClient(t, spec)
	}

	for _, pool := range []struct {
		name string
		cfg  service.Config
	}{
		{"default", service.Config{}},
		{"queue=2,workers=1", service.Config{Queue: 2, Workers: 1}},
	} {
		t.Run(pool.name, func(t *testing.T) {
			node := api.New(api.Config{Seed: testSeed, Service: pool.cfg})
			defer node.Shutdown()
			errs := make([]error, len(envs))
			var wg sync.WaitGroup
			for i, env := range envs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = streamHTTP(node, env, faultFamilies[i].name, step)
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			if err := node.Quiesce(); err != nil {
				t.Fatal(err)
			}
			for i, fam := range faultFamilies {
				if got := viewTuples(tenantIncidents(t, node, fam.name)); fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Errorf("%s posted beside eight other tenants ranks differently\n alone      %v\n concurrent %v", fam.name, want[i], got)
				}
			}
			if st := node.Service().Stats(); st.Failed != 0 || st.Rejected != 0 {
				t.Errorf("%d diagnoses failed, %d rejected", st.Failed, st.Rejected)
			}
		})
	}
}

// TestNodeLearnerFeedMatchesWholeRegistry pins the HTTP node's learner
// feed: each completed diagnosis steps the learner with the one incident
// it filed (none for a diagnosis that named no cause), which must leave
// the learner exactly where observing the whole registry after every
// diagnosis leaves it. A second learner, fed the whole registry, rides
// the node's diagnoses while the nine fault families stream in as
// tenants, and then two more tenants whose slowdowns the emptied
// database names no cause for, so the stream ends in diagnoses that file
// nothing and still step the learner. One worker keeps the two feeds in
// step.
func TestNodeLearnerFeedMatchesWholeRegistry(t *testing.T) {
	symdb := symptoms.Builtin()
	node := api.New(api.Config{Seed: testSeed, SymDB: symdb, Service: service.Config{Workers: 1}})
	defer node.Shutdown()
	svc := node.Service()
	ref := fleet.NewLearner(fleet.LearnConfig{Review: fleet.ReviewOperator}, symptoms.Builtin())
	// Replaced before the first Submit, whose admission mutex orders
	// these writes before any worker reads them.
	feed, healthy := svc.OnDiagnosis, svc.OnHealthy
	svc.OnDiagnosis = func(ev monitor.SlowdownEvent, res *diag.Result) {
		feed(ev, res)
		ref.Observe(svc.Registry().Incidents())
	}
	svc.OnHealthy = func(ev monitor.SlowdownEvent, fb *symptoms.FactBase) {
		healthy(ev, fb)
		ref.AddHealthy(fb)
	}
	stream := func(tenant string, fault func(onset, horizon simtime.Time) faults.Fault) {
		t.Helper()
		env := simulateClient(t, OnlineSpec{Seed: testSeed, Fault: fault})
		if err := streamHTTP(node, env, tenant, 30*simtime.Minute); err != nil {
			t.Fatal(err)
		}
		if err := node.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	for _, fam := range faultFamilies {
		stream(fam.name, fam.fault)
	}
	for _, e := range symdb.Entries() {
		symdb.Remove(e.Kind)
	}
	for _, fam := range faultFamilies[:2] {
		stream(fam.name+"-unexplained", fam.fault)
	}
	got, want := node.Learner().Stats(), ref.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("learner fed the filed incident diverged from one fed the whole registry\n got  %+v\n want %+v", got, want)
	}
	if got.Confirmed+got.HeldOut == 0 {
		t.Errorf("no incident reached the learner; the check is vacuous: %+v", got)
	}
	t.Logf("confirmed %d, held out %d, healthy %d, pending %d", got.Confirmed, got.HeldOut, got.Healthy, len(got.Pending))
}

// planMismatches reads diads_api_plan_mismatch_total, 0 before any
// api.Node registered it: the posted runs every node in the process
// applied under a plan that disagreed with the operators posted.
func planMismatches() float64 {
	for _, fam := range telemetry.Default().Snapshot() {
		if fam.Name == "diads_api_plan_mismatch_total" {
			return fam.Series[0].Value
		}
	}
	return 0
}

// TestDesignListsEveryMetricFamily keeps DESIGN.md's "Metric families"
// table honest: every family registered once the online scenario and an
// HTTP ingest have run (plus whatever other tests of this package
// registered before) must appear there by its exact name.
func TestDesignListsEveryMetricFamily(t *testing.T) {
	if _, err := Online(testSeed); err != nil {
		t.Fatal(err)
	}
	httpIncidents(t, OnlineSpec{Seed: testSeed}, 0)
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
