package testbed

import (
	"reflect"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/metrics"
	"diads/internal/sanperf"
	"diads/internal/simtime"
	"diads/internal/topology"
	"diads/internal/workload"
)

// newShortTestbed builds a Figure 1 testbed with a reduced schedule so
// unit tests stay fast.
func newShortTestbed(t testing.TB, seed int64, runs int) *Testbed {
	t.Helper()
	tb, err := NewFigure1(seed)
	if err != nil {
		t.Fatal(err)
	}
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: runs},
	}
	horizon := simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(runs)*30*simtime.Minute)
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, horizon)
	}
	return tb
}

func TestFigure1TopologyShape(t *testing.T) {
	tb, err := NewFigure1(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tb.Cfg.DisksOf(VolV1)); got != 4 {
		t.Fatalf("V1 disks: %d", got)
	}
	if got := len(tb.Cfg.DisksOf(VolV2)); got != 6 {
		t.Fatalf("V2 disks: %d", got)
	}
	if v, err := tb.Cat.VolumeOf(dbsys.TPartsupp); err != nil || v != VolV1 {
		t.Fatalf("partsupp should live on V1: %v %v", v, err)
	}
	if _, err := tb.Cfg.FabricRoute(ServerDB, VolV1); err != nil {
		t.Fatalf("DB server must reach V1: %v", err)
	}
	if _, err := tb.Cfg.FabricRoute(ServerDB, VolV2); err != nil {
		t.Fatalf("DB server must reach V2: %v", err)
	}
	// Bystander volumes are reachable by their own servers only.
	if _, err := tb.Cfg.FabricRoute(ServerApp1, VolV3); err != nil {
		t.Fatalf("app1 must reach V3: %v", err)
	}
	if _, err := tb.Cfg.FabricRoute(ServerDB, VolV3); err == nil {
		t.Fatalf("DB server must not see V3")
	}
}

func TestSimulateProducesRunsAndMetrics(t *testing.T) {
	tb := newShortTestbed(t, 2, 6)
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	runs := tb.RunsFor("Q2")
	if len(runs) != 6 {
		t.Fatalf("want 6 runs, got %d", len(runs))
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].Start <= runs[i-1].Start {
			t.Fatalf("runs out of order")
		}
	}
	// Volume metrics exist and show query activity on V1 during runs.
	r0 := runs[0]
	win := simtime.NewInterval(r0.Start, r0.Stop.Add(5*simtime.Minute))
	if mean, n := tb.Store.WindowMean(string(VolV1), metrics.VolReadIO, win); n == 0 || mean <= 0 {
		t.Fatalf("V1 readIO during run: mean=%v n=%d", mean, n)
	}
	// DB metrics exist.
	if len(tb.Store.Series(DBInstance, metrics.DBBlocksRead)) == 0 {
		t.Fatalf("DB metrics missing")
	}
	// Server CPU metrics exist.
	if len(tb.Store.Series(string(ServerDB), metrics.SrvCPUUsagePct)) == 0 {
		t.Fatalf("server metrics missing")
	}
	// Simulate is one-shot.
	if err := tb.Simulate(); err == nil {
		t.Fatalf("second Simulate should fail")
	}
}

func TestRunsAreStableWithoutFaults(t *testing.T) {
	tb := newShortTestbed(t, 3, 8)
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	runs := tb.RunsFor("Q2")
	var min, max float64
	for i, r := range runs {
		d := float64(r.Duration())
		if i == 0 || d < min {
			min = d
		}
		if i == 0 || d > max {
			max = d
		}
	}
	if max/min > 1.8 {
		t.Fatalf("healthy runs should be stable: min=%.1fs max=%.1fs", min, max)
	}
}

func TestDeterministicSimulation(t *testing.T) {
	a := newShortTestbed(t, 4, 4)
	b := newShortTestbed(t, 4, 4)
	if err := a.Simulate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Simulate(); err != nil {
		t.Fatal(err)
	}
	ra, rb := a.RunsFor("Q2"), b.RunsFor("Q2")
	for i := range ra {
		if ra[i].Duration() != rb[i].Duration() {
			t.Fatalf("run %d differs: %v vs %v", i, ra[i].Duration(), rb[i].Duration())
		}
	}
	// Monitoring series identical too.
	sa := a.Store.Series(string(VolV1), metrics.VolWriteTime)
	sb := b.Store.Series(string(VolV1), metrics.VolWriteTime)
	if len(sa) == 0 || len(sa) != len(sb) {
		t.Fatalf("series length mismatch: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestScheduledIndexDropChangesPlanMidway(t *testing.T) {
	tb := newShortTestbed(t, 5, 6)
	dropAt := simtime.Time(10*simtime.Minute) + simtime.Time(3*30*simtime.Minute) - simtime.Time(5*simtime.Minute)
	drop := topology.Event{T: dropAt, Kind: topology.EvIndexDropped, Subject: dbsys.IdxPartsuppPart, Detail: "dropped"}
	tb.Changes = []topology.Event{drop}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	runs := tb.RunsFor("Q2")
	sigBefore := runs[0].PlanSig
	sigAfter := runs[len(runs)-1].PlanSig
	if sigBefore == sigAfter {
		t.Fatalf("plan should change after the index drop")
	}
	// The change log records the drop as scheduled.
	if evs := tb.Cfg.Log.All(); !reflect.DeepEqual(evs, []topology.Event{drop}) {
		t.Fatalf("change log %+v, want the drop alone", evs)
	}
	// Runs after the drop are slower (seq scans of partsupp).
	if runs[len(runs)-1].Duration() < runs[0].Duration()*2 {
		t.Fatalf("plan regression should slow runs: %v -> %v",
			runs[0].Duration(), runs[len(runs)-1].Duration())
	}
}

func TestScheduledDMLChangesRecordCounts(t *testing.T) {
	tb := newShortTestbed(t, 6, 6)
	changeAt := simtime.Time(10*simtime.Minute) + simtime.Time(3*30*simtime.Minute) - simtime.Time(5*simtime.Minute)
	dml := topology.Event{T: changeAt, Kind: topology.EvDMLBatch, Subject: dbsys.TPartsupp, Factor: 1.6}
	tb.Changes = []topology.Event{dml}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	runs := tb.RunsFor("Q2")
	before, after := runs[0], runs[len(runs)-1]
	if after.Op(8).ActRows <= before.Op(8).ActRows*1.3 {
		t.Fatalf("O8 actual rows should grow: %v -> %v", before.Op(8).ActRows, after.Op(8).ActRows)
	}
	if before.PlanSig != after.PlanSig {
		t.Fatalf("plan must not change on a data-property change (stale stats)")
	}
	if evs := tb.Cfg.Log.All(); !reflect.DeepEqual(evs, []topology.Event{dml}) {
		t.Fatalf("change log %+v, want the DML alone", evs)
	}
}

func TestExternalLoadSlowsOverlappingRuns(t *testing.T) {
	tb := newShortTestbed(t, 7, 8)
	// Contention on V1's pool during the second half of the schedule.
	half := simtime.Time(10*simtime.Minute) + simtime.Time(4*30*simtime.Minute)
	end := simtime.Time(10*simtime.Minute) + simtime.Time(8*30*simtime.Minute)
	tb.SAN.AddLoad(sanperf.Load{
		Volume: VolV3, Iv: simtime.NewInterval(half, end),
		ReadIOPS: 450, WriteIOPS: 100, Source: "wl-contend",
	})
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	runs := tb.RunsFor("Q2")
	early := float64(runs[0].Duration()+runs[1].Duration()) / 2
	late := float64(runs[6].Duration()+runs[7].Duration()) / 2
	if late/early < 1.5 {
		t.Fatalf("contended runs should slow: early=%.1fs late=%.1fs", early, late)
	}
}

// TestApply pins the one door every state change goes through: each
// mutating kind changes what it names and logs the event with its
// payload, a payload-less kind only logs, and a change that cannot
// apply errors and logs nothing.
func TestApply(t *testing.T) {
	tb, err := NewFigure1(8)
	if err != nil {
		t.Fatal(err)
	}
	rows := tb.Cat.Snapshot().RowsOf(dbsys.TPartsupp)
	staleStats := tb.Stats
	for _, ev := range []topology.Event{
		{T: 1, Kind: topology.EvVolumeCreated, Subject: "vol-X", Pool: PoolP2, Name: "X", SizeGB: 10},
		{T: 2, Kind: topology.EvZoneCreated, Name: "z-x", Ports: []topology.ID{"hba-app2-1-p0", "ss-1-p0"}},
		{T: 3, Kind: topology.EvLUNMapped, Subject: "vol-X", Server: ServerApp2},
		{T: 4, Kind: topology.EvZoneDeleted, Name: "z-app1"},
		{T: 5, Kind: topology.EvIndexDropped, Subject: dbsys.IdxPartsuppPart},
		{T: 6, Kind: topology.EvParamChanged, Subject: dbsys.ParamWorkMemKB, Value: 8192},
		{T: 7, Kind: topology.EvDMLBatch, Subject: dbsys.TPartsupp, Factor: 2},
		{T: 8, Kind: topology.EvStatsUpdated, Subject: dbsys.TPartsupp},
		{T: 9, Kind: topology.EvIndexCreated, Subject: dbsys.IdxPartsuppPart},
		{T: 10, Kind: topology.EvZoneCreated, Subject: "vol-X"}, // no ports: log-only
		{T: 11, Kind: topology.EvWorkloadStarted, Subject: "vol-X"},
	} {
		if err := tb.Apply(ev); err != nil {
			t.Fatalf("%s: %v", ev.Kind, err)
		}
	}
	if c, ok := tb.Cfg.Get("vol-X"); !ok || tb.Cfg.PoolOf("vol-X") != PoolP2 || c.Name != "X" {
		t.Errorf("vol-X not carved from P2")
	}
	if !tb.Cfg.LUNVisible("vol-X", ServerApp2) || !tb.Cfg.Zoned("hba-app2-1-p0", "ss-1-p0") || tb.Cfg.Zoned("hba-app1-1-p0", "ss-1-p1") {
		t.Errorf("zoning or LUN mapping not applied")
	}
	if _, ok := tb.Cat.Schema().IndexOn(dbsys.TPartsupp, "ps_partkey"); !ok {
		t.Errorf("index not restored")
	}
	if got := tb.Cat.Snapshot().RowsOf(dbsys.TPartsupp); got != 2*rows {
		t.Errorf("partsupp rows %d, want %d", got, 2*rows)
	}
	if tb.Stats.RowsOf(dbsys.TPartsupp) != 2*rows || tb.Engine.StatsBase.RowsOf(dbsys.TPartsupp) != 2*rows ||
		staleStats.RowsOf(dbsys.TPartsupp) != rows {
		t.Errorf("StatsUpdated must re-snapshot Stats and the engine's base, leaving the old snapshot alone")
	}
	log := tb.Cfg.Log.All()
	if len(log) != 11 {
		t.Fatalf("logged %d events, want 11", len(log))
	}
	if p := log[5]; p.Old != 4096 || p.Value != 8192 || p.Detail != "work_mem: 4096 -> 8192" {
		t.Errorf("ParamChanged logged as %+v", p)
	}

	for _, bad := range []topology.Event{
		{Kind: topology.EvVolumeCreated, Subject: "vol-X", Pool: PoolP2, Name: "dup", SizeGB: 1},
		{Kind: topology.EvVolumeCreated, Subject: "vol-Y", Pool: "no-pool", Name: "Y", SizeGB: 1},
		{Kind: topology.EvZoneCreated, Name: "z", Ports: []topology.ID{"no-port"}},
		{Kind: topology.EvZoneDeleted, Name: "no-zone"},
		{Kind: topology.EvLUNMapped, Subject: "no-volume", Server: ServerDB},
		{Kind: topology.EvLUNMapped, Subject: "vol-X", Server: "no-server"},
		{Kind: topology.EvIndexDropped, Subject: "no-index"},
		{Kind: topology.EvIndexCreated, Subject: "no-index"},
		{Kind: topology.EvDMLBatch, Subject: "no-table", Factor: 2},
	} {
		if err := tb.Apply(bad); err == nil {
			t.Errorf("%s %+v applied", bad.Kind, bad)
		}
	}
	if n := tb.Cfg.Log.Len(); n != 11 {
		t.Errorf("failed changes were logged: %d events", n)
	}
}
