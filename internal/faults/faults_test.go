package faults

import (
	"reflect"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
	"diads/internal/topology"
	"diads/internal/workload"
)

func newTB(t *testing.T, seed int64) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.NewFigure1(seed)
	if err != nil {
		t.Fatal(err)
	}
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: 4},
	}
	horizon := simtime.Time(10*simtime.Minute) + simtime.Time(4*30*simtime.Minute)
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, horizon)
	}
	return tb
}

func TestSANMisconfigurationCreatesVolumeAndEvents(t *testing.T) {
	tb := newTB(t, 1)
	f := &SANMisconfiguration{
		At: 1000, Until: 100000, Pool: testbed.PoolP1,
		NewVolume: "vol-Vp", Host: testbed.ServerApp1,
		ReadIOPS: 300, WriteIOPS: 100,
	}
	if err := Inject(tb, f); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Cfg.Get("vol-Vp"); !ok {
		t.Fatalf("V' not created")
	}
	if !tb.Cfg.LUNVisible("vol-Vp", testbed.ServerApp1) {
		t.Fatalf("V' not mapped")
	}
	// Applied at injection, each change logged with its payload.
	want := []topology.Event{
		{T: 1000, Kind: topology.EvVolumeCreated, Subject: "vol-Vp", Detail: "volume V' created in pool-P1",
			Pool: testbed.PoolP1, Name: "V'", SizeGB: 80},
		{T: 1030, Kind: topology.EvZoneCreated, Subject: "vol-Vp", Detail: "zoning for host srv-app1"},
		{T: 1060, Kind: topology.EvLUNMapped, Subject: "vol-Vp", Detail: "LUN mapped to host srv-app1",
			Server: testbed.ServerApp1},
		{T: 1120, Kind: topology.EvWorkloadStarted, Subject: "vol-Vp", Detail: "external workload started on V'"},
	}
	if got := tb.Cfg.Log.All(); !reflect.DeepEqual(got, want) {
		t.Errorf("change log:\n got %+v\nwant %+v", got, want)
	}
	if len(tb.Changes) != 0 {
		t.Errorf("SAN changes must not be scheduled: %+v", tb.Changes)
	}
	if got := tb.SAN.VolumeReadIOPS("vol-Vp", 2000); got != 300 {
		t.Fatalf("V' load not applied: %v", got)
	}
	// Idempotence violation is an error: applying twice recreates V'.
	if err := f.Apply(tb); err == nil {
		t.Fatalf("double apply should fail on duplicate volume")
	}
}

func TestExternalVolumeLoadBursts(t *testing.T) {
	tb := newTB(t, 2)
	f := &ExternalVolumeLoad{
		LoadName: "wl", Volume: testbed.VolV4,
		Window:   simtime.NewInterval(0, 1000),
		ReadIOPS: 100, DutyCycle: 0.5, Period: 200,
	}
	if err := Inject(tb, f); err != nil {
		t.Fatal(err)
	}
	if got := tb.SAN.VolumeReadIOPS(testbed.VolV4, 50); got != 100 {
		t.Fatalf("burst on-phase: %v", got)
	}
	if got := tb.SAN.VolumeReadIOPS(testbed.VolV4, 150); got != 0 {
		t.Fatalf("burst off-phase: %v", got)
	}
	// The answer names the database's volume sharing V4's pool, not V4.
	if got, want := f.Answer(tb), []Cause{{symptoms.CauseExternalLoad, string(testbed.VolV2)}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("answer = %v, want %v", got, want)
	}
}

func TestDataPropertyChangeSchedulesDML(t *testing.T) {
	tb := newTB(t, 3)
	f := &DataPropertyChange{At: 500, Table: dbsys.TPartsupp, Factor: 1.5}
	if err := Inject(tb, f); err != nil {
		t.Fatal(err)
	}
	want := []topology.Event{{T: 500, Kind: topology.EvDMLBatch, Subject: dbsys.TPartsupp, Factor: 1.5,
		Detail: "bulk DML scaled partsupp cardinality by 1.50x"}}
	if !reflect.DeepEqual(tb.Changes, want) {
		t.Fatalf("DML not scheduled: %+v", tb.Changes)
	}
	if tb.Cfg.Log.Len() != 0 {
		t.Fatalf("a scheduled change must not log before it applies")
	}
}

func TestTableLockContentionRequiresHolds(t *testing.T) {
	tb := newTB(t, 4)
	if err := (&TableLockContention{Table: dbsys.TPartsupp}).Apply(tb); err == nil {
		t.Fatalf("no holds should error")
	}
	f := &TableLockContention{
		Table: dbsys.TPartsupp,
		Holds: []simtime.Interval{simtime.NewInterval(100, 200)},
	}
	if err := Inject(tb, f); err != nil {
		t.Fatal(err)
	}
	if w := tb.Locks.WaitTime(dbsys.TPartsupp, 150); w != 50 {
		t.Fatalf("lock wait: %v", w)
	}
}

func TestRAIDRebuildLoadsAllPoolDisks(t *testing.T) {
	tb := newTB(t, 5)
	f := &RAIDRebuild{Pool: testbed.PoolP1, Window: simtime.NewInterval(0, 100), Intensity: 0.4}
	if err := Inject(tb, f); err != nil {
		t.Fatal(err)
	}
	for _, d := range tb.Cfg.ChildrenOfKind(testbed.PoolP1, topology.KindDisk) {
		if u := tb.SAN.DiskUtilization(d, 50); u < 0.4 {
			t.Errorf("disk %s rebuild load missing: %v", d, u)
		}
	}
	if len(tb.Cfg.Log.OfKind(topology.EvRAIDRebuildStart)) != 1 ||
		len(tb.Cfg.Log.OfKind(topology.EvRAIDRebuildDone)) != 1 {
		t.Fatalf("rebuild events missing")
	}
	if err := (&RAIDRebuild{Pool: "no-such-pool", Window: simtime.NewInterval(0, 1)}).Apply(tb); err == nil {
		t.Fatalf("unknown pool should error")
	}
}

func TestDiskFailureShiftsLoadAndLogs(t *testing.T) {
	tb := newTB(t, 6)
	f := &DiskFailure{Disk: "disk-2", Window: simtime.NewInterval(100, 200), RebuildIntensity: 0.3}
	if err := Inject(tb, f); err != nil {
		t.Fatal(err)
	}
	if u := tb.SAN.DiskUtilization("disk-2", 150); u != 1 {
		t.Fatalf("failed disk should read saturated: %v", u)
	}
	if u := tb.SAN.DiskUtilization("disk-1", 150); u < 0.3 {
		t.Fatalf("survivor should carry rebuild load: %v", u)
	}
	if len(tb.Cfg.Log.OfKind(topology.EvDiskFailed)) != 1 {
		t.Fatalf("DiskFailed event missing")
	}
	if err := (&DiskFailure{Disk: "no-such-disk", Window: simtime.NewInterval(0, 1)}).Apply(tb); err == nil {
		t.Fatalf("unknown disk should error")
	}
}

func TestCPUSaturationAndScheduledChanges(t *testing.T) {
	tb := newTB(t, 7)
	err := Inject(tb,
		&CPUSaturation{Server: testbed.ServerDB, Window: simtime.NewInterval(0, 100), Load: 0.7},
		&IndexDrop{At: 50, Index: dbsys.IdxPartsuppPart},
		&ParamChange{At: 60, Param: dbsys.ParamRandomPageCost, Value: 40},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.CPULoad.At("cpu", 50); got != 0.7 {
		t.Fatalf("cpu load: %v", got)
	}
	want := []topology.Event{
		{T: 50, Kind: topology.EvIndexDropped, Subject: dbsys.IdxPartsuppPart, Detail: "index dropped by maintenance script"},
		{T: 60, Kind: topology.EvParamChanged, Subject: dbsys.ParamRandomPageCost, Value: 40},
	}
	if !reflect.DeepEqual(tb.Changes, want) {
		t.Fatalf("scheduled changes: %+v", tb.Changes)
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	// Applied in Simulate: the parameter's Old and Detail come from the
	// value it replaced.
	want[1].Old, want[1].Detail = 4, "random_page_cost: 4 -> 40"
	if got := tb.Cfg.Log.All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("change log:\n got %+v\nwant %+v", got, want)
	}
	if _, ok := tb.Cat.IndexOn(dbsys.TPartsupp, "ps_partkey"); ok {
		t.Errorf("index still present after its drop applied")
	}
	if got := tb.Params.Get(dbsys.ParamRandomPageCost); got != 40 {
		t.Errorf("random_page_cost = %v after its change applied", got)
	}
}

// TestAnswersNamedForAllFaults pins each family's answer on the Figure 1
// testbed, applied: the words a correct diagnosis uses, with SAN faults
// naming the database's victim volumes and a disk failure its pool.
func TestAnswersNamedForAllFaults(t *testing.T) {
	iv := simtime.NewInterval(100, 1000)
	for _, tc := range []struct {
		f    Fault
		want []Cause
	}{
		{&SANMisconfiguration{At: 100, Until: 1000, Pool: testbed.PoolP1, NewVolume: "vol-Vp", Host: testbed.ServerApp1},
			[]Cause{{symptoms.CauseSANMisconfig, string(testbed.VolV1)}}},
		{&ExternalVolumeLoad{Volume: testbed.VolV3, Window: iv},
			[]Cause{{symptoms.CauseExternalLoad, string(testbed.VolV1)}}},
		{&ExternalVolumeLoad{Volume: testbed.VolV4, Window: iv},
			[]Cause{{symptoms.CauseExternalLoad, string(testbed.VolV2)}}},
		{&DataPropertyChange{At: 100, Table: dbsys.TPartsupp, Factor: 1.5},
			[]Cause{{symptoms.CauseDataProperty, dbsys.TPartsupp}}},
		{&TableLockContention{Table: dbsys.TPartsupp, Holds: []simtime.Interval{iv}},
			[]Cause{{symptoms.CauseLockContention, dbsys.TPartsupp}}},
		{&RAIDRebuild{Pool: testbed.PoolP1, Window: iv},
			[]Cause{{symptoms.CauseRAIDRebuild, string(testbed.PoolP1)}}},
		{&DiskFailure{Disk: "disk-3", Window: iv},
			[]Cause{{symptoms.CauseDiskFailure, string(testbed.PoolP1)}}},
		{&CPUSaturation{Server: testbed.ServerDB, Window: iv, Load: 0.5},
			[]Cause{{symptoms.CauseCPUSaturation, string(testbed.ServerDB)}}},
		{&IndexDrop{At: 100, Index: dbsys.IdxPartsuppPart},
			[]Cause{{symptoms.CausePlanRegression, dbsys.IdxPartsuppPart}}},
		{&ParamChange{At: 100, Param: dbsys.ParamRandomPageCost, Value: 40},
			[]Cause{{symptoms.CausePlanRegression, dbsys.ParamRandomPageCost}}},
	} {
		tb := newTB(t, 1)
		if err := Inject(tb, tc.f); err != nil {
			t.Fatal(err)
		}
		if got := tc.f.Answer(tb); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: answer = %v, want %v", tc.f.Name(), got, tc.want)
		}
	}
}
