package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/faults"
	"diads/internal/monitor"
	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/topology"
	"diads/internal/workload"
)

// TestChangeLogReplaysThroughIngest is the one-door property: for each of
// the nine fault families, a short simulated day's change log, posted as
// WireEventOf over JSON into a fresh node, leaves the node's instance in
// the simulator's state — topology, catalog, parameters, statistics and
// change log alike, compared by content.
func TestChangeLogReplaysThroughIngest(t *testing.T) {
	const runs = 8
	start := simtime.Time(10 * simtime.Minute)
	end := start.Add(runs * 30 * simtime.Minute)
	onset := start.Add(runs/2*30*simtime.Minute - 5*simtime.Minute)
	during := simtime.NewInterval(onset, end)
	for _, f := range []faults.Fault{
		&faults.SANMisconfiguration{At: onset, Until: end, Pool: testbed.PoolP1,
			NewVolume: "vol-Vp", Host: testbed.ServerApp1, ReadIOPS: 450, WriteIOPS: 120},
		&faults.ExternalVolumeLoad{LoadName: "wl-v3", Volume: testbed.VolV3, Window: during, ReadIOPS: 400, DutyCycle: 1},
		&faults.DataPropertyChange{At: onset, Table: dbsys.TPartsupp, Factor: 1.8},
		&faults.TableLockContention{Table: dbsys.TPartsupp, Holds: []simtime.Interval{during}, Holder: "txn"},
		&faults.RAIDRebuild{Pool: testbed.PoolP1, Window: during, Intensity: 0.5},
		&faults.DiskFailure{Disk: "disk-3", Window: during, RebuildIntensity: 0.45},
		&faults.CPUSaturation{Server: testbed.ServerDB, Window: during, Load: 0.8},
		&faults.IndexDrop{At: onset, Index: dbsys.IdxPartsuppPart},
		&faults.ParamChange{At: onset, Param: dbsys.ParamEnableIndexScan, Value: 0},
	} {
		t.Run(f.Name(), func(t *testing.T) {
			sim, err := testbed.NewFigure1(testSeed)
			if err != nil {
				t.Fatal(err)
			}
			sim.Schedules = []workload.QuerySchedule{{Query: "Q2", Start: start, Period: 30 * simtime.Minute, Count: runs}}
			for i := range sim.Loads {
				sim.Loads[i].Window = simtime.NewInterval(0, end)
			}
			if err := faults.Inject(sim, f); err != nil {
				t.Fatal(err)
			}
			if err := sim.Simulate(); err != nil {
				t.Fatal(err)
			}

			node := New(Config{Seed: testSeed})
			defer node.Shutdown()
			events := logEvents(sim)
			body, err := json.Marshal(EventBatch{Tenant: "acme", Instance: "db-1", Events: events})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest/events", bytes.NewReader(body)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("POST events = %d %s", rec.Code, rec.Body)
			}
			reachChanges(t, node, "acme", "db-1", events)
			node.mu.Lock()
			got := node.instances[keyOf("acme", "db-1")].Testbed
			node.mu.Unlock()
			sameState(t, sim, got)
		})
	}
}

// TestStatsUpdatedReachesDiagnoses: a posted StatsUpdated re-snapshots the
// statistics the instance's runs are planned under, and the environment
// its diagnoses read follows.
func TestStatsUpdatedReachesDiagnoses(t *testing.T) {
	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	post := func(events ...WireEvent) {
		if err := node.enqueue(intakeJob{events: &EventBatch{Tenant: "acme", Instance: "db-1", Events: events}}); err != nil {
			t.Fatal(err)
		}
		if err := node.Quiesce(); err != nil {
			t.Fatal(err)
		}
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
	post := func(j intakeJob) {
		if err := node.enqueue(j); err != nil {
			t.Fatal(err)
		}
		if err := node.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	post(intakeJob{events: &EventBatch{Tenant: "acme", Instance: "db-1", Events: []WireEvent{drop}}})
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
	post(intakeJob{runs: runs})

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

// reachChanges moves the instance's evidence past every posted change,
// which takes effect only once evidence reaches its time: it posts an
// empty sample batch whose watermark is past the latest change and
// settles the node.
func reachChanges(t *testing.T, node *Node, tenant, instance string, events []WireEvent) {
	t.Helper()
	watermark := 0.0
	for _, e := range events {
		watermark = max(watermark, e.T)
	}
	watermark++
	if err := node.enqueue(intakeJob{samples: &SampleBatch{Tenant: tenant, Instance: instance, Watermark: &watermark}}); err != nil {
		t.Fatal(err)
	}
	if err := node.Quiesce(); err != nil {
		t.Fatal(err)
	}
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
		if err := node.enqueue(intakeJob{events: b}); err != nil {
			t.Fatal(err)
		}
		if err := node.Quiesce(); err != nil {
			t.Fatal(err)
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
		if err := node.enqueue(intakeJob{runs: runs}); err != nil {
			t.Fatal(err)
		}
		if err := node.Quiesce(); err != nil {
			t.Fatal(err)
		}
	})
}
