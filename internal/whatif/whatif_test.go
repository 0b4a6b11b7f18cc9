package whatif

import (
	"testing"

	"diads/internal/dbsys"
	"diads/internal/sanperf"
	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/workload"
)

func analyzer(t *testing.T) *Analyzer {
	t.Helper()
	tb, err := testbed.NewFigure1(61)
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
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	run := tb.RunsFor("Q2")[1]
	return &Analyzer{
		Cfg: tb.Cfg, SAN: tb.SAN, Cat: tb.Cat, Opt: tb.Opt,
		Params: tb.Params, Stats: tb.Stats, Baseline: run, At: run.Start,
	}
}

func TestAddWorkloadPredictsPoolSensitivity(t *testing.T) {
	an := analyzer(t)
	p1, err := an.AddWorkload(testbed.VolV3, 450, 120)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := an.AddWorkload(testbed.VolV4, 450, 120)
	if err != nil {
		t.Fatal(err)
	}
	if p1.SlowdownFactor <= 1 {
		t.Fatalf("P1 workload should predict a slowdown: %v", p1)
	}
	if p1.SlowdownFactor <= p2.SlowdownFactor {
		t.Fatalf("P1 (partsupp pool, 4 disks) should hurt more than P2 (6 disks): %v vs %v", p1, p2)
	}
	if _, err := an.AddWorkload("no-such-volume", 10, 10); err == nil {
		t.Fatalf("unknown volume should error")
	}
}

func TestMoveVolumePredictsRelief(t *testing.T) {
	an := analyzer(t)
	// Load V3's pool first so moving V3 away predicts relief for Q2.
	an.SAN.AddLoad(sanperf.Load{
		Volume: testbed.VolV3, Iv: simtime.NewInterval(0, 1e9),
		ReadIOPS: 300, Source: "test-load",
	})
	pred, err := an.MoveVolume(testbed.VolV3, testbed.PoolP2)
	if err != nil {
		t.Fatal(err)
	}
	if pred.SlowdownFactor >= 1 {
		t.Fatalf("moving the loaded V3 off P1 should predict a speedup: %v", pred)
	}
	if _, err := an.MoveVolume(testbed.VolV3, "no-such-pool"); err == nil {
		t.Fatalf("unknown pool should error")
	}
}

func TestGrowTablePredictsCostIncrease(t *testing.T) {
	an := analyzer(t)
	pred, err := an.GrowTable(dbsys.TPartsupp, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if pred.SlowdownFactor <= 1 {
		t.Fatalf("doubling partsupp should predict a slowdown: %v", pred)
	}
	if _, err := an.GrowTable("nope", 2); err == nil {
		t.Fatalf("unknown table should error")
	}
}

func TestChangeParamDetectsPlanFlip(t *testing.T) {
	an := analyzer(t)
	same, err := an.ChangeParam(dbsys.ParamWorkMemKB, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if same.SlowdownFactor != 1 {
		t.Fatalf("work_mem change should keep the plan: %v", same)
	}
	flip, err := an.ChangeParam(dbsys.ParamEnableIndexScan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if flip.SlowdownFactor <= 1 {
		t.Fatalf("disabling index scans should predict a regression: %v", flip)
	}
}
