package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/experiments"
	"diads/internal/monitor"
	"diads/internal/testbed"
	"diads/internal/topology"
)

// TestChangeLogReplaysThroughIngest is the one-door property: for each
// fault family of the catalog, a short simulated day's change log,
// posted as WireEventOf over JSON into a fresh node, leaves the node's
// instance in the simulator's state — topology, catalog, parameters,
// statistics and change log alike, compared by content.
func TestChangeLogReplaysThroughIngest(t *testing.T) {
	for _, fam := range experiments.Families {
		env := simulateClient(t, experiments.OnlineSpec{Seed: testSeed, Runs: 8, Fault: fam.Fault})
		t.Run(env.Fault.Name(), func(t *testing.T) {
			sim := env.Testbed
			node := New(Config{Seed: testSeed})
			defer node.Shutdown()
			events := logEvents(sim)
			postBatch(t, node, "/v1/ingest/events", EventBatch{Tenant: "acme", Instance: "db-1", Events: events})
			reachChanges(t, node, "acme", "db-1", events)
			node.mu.Lock()
			got := node.instances[keyOf("acme", "db-1")].Testbed
			node.mu.Unlock()
			sameState(t, sim, got)
		})
	}
}

// TestChangeWaitsForInFlightDiagnoses: an instance's state changes only
// between its diagnoses. One goroutine posts the SAN-misconfiguration
// day — events, runs, then samples in 2 000-sample batches, whose
// watermarks release its detections into the pool — while another posts
// 2 000 batches of one ZoneCreated each, due at once. A zone added while
// a diagnosis of the instance builds its APG over the same topology is
// a data race under -race.
func TestChangeWaitsForInFlightDiagnoses(t *testing.T) {
	env := simulateClient(t, experiments.OnlineSpec{Seed: testSeed})
	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	post := func(route string, batch any) error {
		body, err := json.Marshal(batch)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("POST %s = %d %s", route, rec.Code, rec.Body)
		}
		return nil
	}
	zones := make(chan error, 1)
	go func() {
		for i := range 2000 {
			zone := WireEvent{Kind: string(topology.EvZoneCreated), Subject: "zone-" + strconv.Itoa(i),
				Name: "zone-" + strconv.Itoa(i), Ports: []string{"hba-db-1-p0", "ss-1-p0"}}
			if err := post("/v1/ingest/events", EventBatch{Tenant: "acme", Instance: "db-1", Events: []WireEvent{zone}}); err != nil {
				zones <- err
				return
			}
		}
		zones <- nil
	}()

	tb := env.Testbed
	day := []error{post("/v1/ingest/events", EventBatch{Tenant: "acme", Instance: "db-1", Events: logEvents(tb)})}
	runs := RunBatch{Tenant: "acme", Instance: "db-1"}
	for _, rec := range tb.Runs {
		runs.Runs = append(runs.Runs, WireRunOf(rec))
	}
	day = append(day, post("/v1/ingest/runs", runs))
	samples := storeSamples(tb)
	for i := 0; i < len(samples); i += 2000 {
		batch := SampleBatch{Tenant: "acme", Instance: "db-1", Samples: samples[i:min(i+2000, len(samples))]}
		day = append(day, post("/v1/ingest/samples", batch))
	}
	if err := errors.Join(append(day, <-zones)...); err != nil {
		t.Fatal(err)
	}
	if err := node.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if st := node.Service().Stats(); st.Completed == 0 || st.Failed != 0 {
		t.Errorf("%d diagnoses completed, %d failed; want some, and none failed", st.Completed, st.Failed)
	}
}

// TestStatsUpdatedReachesDiagnoses: a posted StatsUpdated re-snapshots the
// statistics the instance's runs are planned under, and the environment
// its diagnoses read follows.
func TestStatsUpdatedReachesDiagnoses(t *testing.T) {
	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	post := func(events ...WireEvent) {
		postBatch(t, node, "/v1/ingest/events", EventBatch{Tenant: "acme", Instance: "db-1", Events: events})
	}
	post()
	node.mu.Lock()
	tb := node.instances[keyOf("acme", "db-1")].Testbed
	node.mu.Unlock()
	before := tb.Stats.RowsOf(dbsys.TPartsupp)
	events := []WireEvent{
		{T: 10, Kind: "DMLBatch", Subject: dbsys.TPartsupp, Factor: 2},
		{T: 20, Kind: "StatsUpdated", Subject: dbsys.TPartsupp},
	}
	post(events...)
	reachChanges(t, node, "acme", "db-1", events)
	if got := tb.Stats.RowsOf(dbsys.TPartsupp); got != 2*before {
		t.Fatalf("statistics after StatsUpdated: %d partsupp rows, want %d", got, 2*before)
	}
	if env, ok := node.svc.EnvFor("acme/db-1"); !ok || !reflect.DeepEqual(env.Stats, tb.Stats) {
		t.Fatalf("diagnosis environment statistics %v, want the instance's %v", env.Stats, tb.Stats)
	}
}

// TestRunsPlanAsOfTheirStart: a posted change takes effect at its own
// time T, not when it is posted. An IndexDrop posted ahead of runs that
// start before T, at T and after T leaves the first on the pre-drop plan
// and moves the others to the post-drop plan: like the simulator, the
// node applies a change before a run that starts at its time.
func TestRunsPlanAsOfTheirStart(t *testing.T) {
	const at = 4 * 3600.0
	drop := WireEvent{T: at, Kind: string(topology.EvIndexDropped), Subject: dbsys.IdxPartsuppPart}
	ref, err := testbed.NewFigure1(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	plan := func() string {
		p, err := ref.Opt.PlanQuery("Q2", ref.Stats, ref.Params)
		if err != nil {
			t.Fatal(err)
		}
		return p.Signature()
	}
	before := plan()
	if err := ref.Apply(drop.event()); err != nil {
		t.Fatal(err)
	}
	after := plan()
	if before == after {
		t.Fatal("dropping the index leaves Q2's plan as it was; the check is vacuous")
	}

	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	postBatch(t, node, "/v1/ingest/events", EventBatch{Tenant: "acme", Instance: "db-1", Events: []WireEvent{drop}})
	// Six runs before the drop arm the monitor; the last run, after it,
	// is slow enough to raise the event whose snapshot shows every plan.
	runs := &RunBatch{Tenant: "acme", Instance: "db-1"}
	for i, start := range []float64{at - 1800, at - 1500, at - 1200, at - 900, at - 600, at - 300, at, at + 300} {
		dur := 10.0
		if start > at {
			dur = 100
		}
		runs.Runs = append(runs.Runs, WireRun{Query: "Q2", RunID: strconv.Itoa(i), Start: start, Stop: start + dur})
	}
	postBatch(t, node, "/v1/ingest/runs", runs)

	node.mu.Lock()
	in := node.instances[keyOf("acme", "db-1")]
	node.mu.Unlock()
	evs := in.Monitor.Release(monitor.EndOfStream)
	if len(evs) != 1 || len(evs[0].Runs) != len(runs.Runs) {
		t.Fatalf("%d events; want one whose snapshot holds all %d runs", len(evs), len(runs.Runs))
	}
	for _, r := range evs[0].Runs {
		want := before
		if float64(r.Start) >= at {
			want = after
		}
		if r.PlanSig != want {
			t.Errorf("run starting at %v, drop at %v: planned as %s, want %s", r.Start, at, r.PlanSig, want)
		}
	}
}

// postBatch posts batch to the route through the node's handler and
// fails the test unless it is answered 202, which means applied.
func postBatch(t *testing.T, node *Node, route string, batch any) {
	t.Helper()
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST %s = %d %s", route, rec.Code, rec.Body)
	}
}

// reachChanges moves the instance's evidence past every posted change,
// which takes effect only once evidence reaches its time: it posts an
// empty sample batch whose watermark is past the latest change.
func reachChanges(t *testing.T, node *Node, tenant, instance string, events []WireEvent) {
	t.Helper()
	watermark := 0.0
	for _, e := range events {
		watermark = max(watermark, e.T)
	}
	watermark++
	postBatch(t, node, "/v1/ingest/samples", SampleBatch{Tenant: tenant, Instance: instance, Watermark: &watermark})
}

// sameState compares two environments' changeable state by content.
func sameState(t *testing.T, want, got *testbed.Testbed) {
	t.Helper()
	for kind := topology.KindServer; kind <= topology.KindDisk; kind++ {
		ids := want.Cfg.All(kind)
		if g := got.Cfg.All(kind); !reflect.DeepEqual(g, ids) {
			t.Errorf("%s components %v, want %v", kind, g, ids)
			continue
		}
		for _, id := range ids {
			w, _ := want.Cfg.Get(id)
			g, _ := got.Cfg.Get(id)
			if !reflect.DeepEqual(g, w) || got.Cfg.Parent(id) != want.Cfg.Parent(id) ||
				!reflect.DeepEqual(got.Cfg.ServersMappedTo(id), want.Cfg.ServersMappedTo(id)) {
				t.Errorf("component %s differs: %+v in %s, want %+v in %s", id, g, got.Cfg.Parent(id), w, want.Cfg.Parent(id))
			}
		}
	}
	if g, w := got.Cfg.Zones(), want.Cfg.Zones(); !reflect.DeepEqual(g, w) {
		t.Errorf("zones %+v, want %+v", g, w)
	}
	for _, name := range []string{
		dbsys.IdxPartKey, dbsys.IdxPartType, dbsys.IdxSupplierKey, dbsys.IdxPartsuppPart,
		dbsys.IdxPartsuppSupp, dbsys.IdxNationKey, dbsys.IdxRegionKey, dbsys.IdxOrdersKey,
		dbsys.IdxLineitemOrder, dbsys.IdxCustomerKey, dbsys.IdxOrdersCustomer,
	} {
		g, _ := got.Cat.Index(name)
		w, _ := want.Cat.Index(name)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("index %s: %+v, want %+v", name, g, w)
		}
	}
	if g, w := got.Cat.Snapshot().Rows, want.Cat.Snapshot().Rows; !reflect.DeepEqual(g, w) {
		t.Errorf("row counts %v, want %v", g, w)
	}
	if g, w := got.Params.String(), want.Params.String(); g != w {
		t.Errorf("parameters %s, want %s", g, w)
	}
	if g, w := got.Stats.Rows, want.Stats.Rows; !reflect.DeepEqual(g, w) {
		t.Errorf("statistics %v, want %v", g, w)
	}
	if g, w := got.Cfg.Log.All(), want.Cfg.Log.All(); !reflect.DeepEqual(g, w) {
		t.Errorf("change log\n%+v\nwant\n%+v", g, w)
	}
}

// FuzzDecodeEventBatch drives the events route's whole path: decode,
// validate and apply into a fresh node, then plan one run of each query
// under the state the events left; the node must never panic. Every
// accepted event round-trips event → WireEventOf → event unchanged, and
// either lands in the instance's change log or counts as an apply error.
// The seeds are testdata/fuzz/FuzzDecodeEventBatch.
func FuzzDecodeEventBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		b := new(EventBatch)
		if decodeStrict(body, b) != nil || b.validate() != nil {
			return
		}
		for i := range b.Events {
			ev := b.Events[i].event()
			wire := WireEventOf(ev)
			if back := wire.event(); !reflect.DeepEqual(back, ev) {
				t.Fatalf("event %d does not round-trip:\n %+v\n %+v", i, ev, back)
			}
		}
		node := New(Config{Seed: testSeed})
		defer node.Shutdown()
		errs := node.tel.applyErr.Value()
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest/events", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST events = %d %s", rec.Code, rec.Body)
		}
		reachChanges(t, node, b.Tenant, b.Instance, b.Events)
		node.mu.Lock()
		in := node.instances[keyOf(b.Tenant, b.Instance)]
		node.mu.Unlock()
		logged, failed := in.Testbed.Cfg.Log.Len(), int(node.tel.applyErr.Value()-errs)
		if logged+failed != len(b.Events) {
			t.Fatalf("%d events: %d logged, %d failed", len(b.Events), logged, failed)
		}
		for table, rows := range in.Testbed.Cat.Snapshot().Rows {
			if rows < 0 {
				t.Fatalf("%s has %d rows", table, rows)
			}
		}
		runs := &RunBatch{Tenant: b.Tenant, Instance: b.Instance}
		for _, q := range []string{"Q2", "Q5", "Q6", "Q14"} {
			runs.Runs = append(runs.Runs, WireRun{Query: q, RunID: q, Start: 1, Stop: 2})
		}
		postBatch(t, node, "/v1/ingest/runs", runs)
	})
}
