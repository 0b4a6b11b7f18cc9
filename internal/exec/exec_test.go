package exec

import (
	"math"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/opt"
	"diads/internal/plan"
	"diads/internal/sanperf"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// newRig assembles a full execution environment over the Figure 1 SAN.
func newRig(t testing.TB, seed int64) (*Engine, *plan.Plan) {
	t.Helper()
	cfg := topology.New()
	steps := []error{
		cfg.AddServer("srv-db", "db", nil),
		cfg.AddSubsystem("ss-1", "DS6000", "IBM"),
		cfg.AddPool("pool-P1", "ss-1", "P1", "RAID5"),
		cfg.AddPool("pool-P2", "ss-1", "P2", "RAID5"),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []topology.ID{"disk-1", "disk-2", "disk-3", "disk-4"} {
		if err := cfg.AddDisk(d, "pool-P1", string(d)); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []topology.ID{"disk-5", "disk-6", "disk-7", "disk-8", "disk-9", "disk-10"} {
		if err := cfg.AddDisk(d, "pool-P2", string(d)); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []struct{ id, pool topology.ID }{
		{"vol-V1", "pool-P1"}, {"vol-Vp", "pool-P1"}, {"vol-V2", "pool-P2"},
	} {
		if err := cfg.AddVolume(v.id, v.pool, string(v.id), 100); err != nil {
			t.Fatal(err)
		}
	}
	cat := dbsys.NewTPCHCatalog(1.0, "vol-V1", "vol-V2")
	stats := cat.Snapshot()
	params := dbsys.DefaultParams()
	o := opt.New(cat)
	q2, err := o.PlanQuery("Q2", stats, params)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{
		Cat:        cat,
		Params:     params,
		Cache:      dbsys.NewCacheModel(32),
		Locks:      dbsys.NewLockManager(),
		SAN:        sanperf.NewModel(cfg, sanperf.DefaultDiskParams()),
		Server:     "srv-db",
		StatsBase:  stats,
		CPULoad:    sanperf.NewTimeline(),
		Rnd:        simtime.NewRand(seed, "exec"),
		NoiseSigma: 0.05,
		TableNoise: map[string]float64{dbsys.TPart: 0.3},
	}
	return eng, q2
}

func TestRunProducesCompleteRecord(t *testing.T) {
	eng, q2 := newRig(t, 1)
	rec, err := eng.Run(q2, 1000, "run-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) != 25 {
		t.Fatalf("want 25 OpRuns, got %d", len(rec.Ops))
	}
	if rec.Duration() <= 0 {
		t.Fatalf("nonpositive duration %v", rec.Duration())
	}
	// The root's recorded (inclusive) time equals the run duration.
	root := rec.Op(1)
	if math.Abs(float64(root.Recorded-rec.Duration())) > 1e-9 {
		t.Fatalf("root recorded %v != duration %v", root.Recorded, rec.Duration())
	}
	// Plausible magnitude: seconds to a few minutes, not micro or hours.
	if rec.Duration() < 1 || rec.Duration() > 1800 {
		t.Fatalf("implausible baseline duration %v", rec.Duration())
	}
	if rec.IdxScans == 0 || rec.SeqScans == 0 {
		t.Fatalf("scan counters not populated: idx=%d seq=%d", rec.IdxScans, rec.SeqScans)
	}
	if rec.PhysIO <= 0 || rec.CacheHit <= 0 {
		t.Fatalf("I/O accounting missing: phys=%v hit=%v", rec.PhysIO, rec.CacheHit)
	}
}

func TestIntervalNesting(t *testing.T) {
	eng, q2 := newRig(t, 2)
	rec, err := eng.Run(q2, 0, "run-1")
	if err != nil {
		t.Fatal(err)
	}
	// Every operator's interval lies within its parent's.
	for _, n := range q2.Nodes() {
		if n.ID == 1 {
			continue
		}
		op := rec.Op(n.ID)
		parent := rec.Op(q2.ParentID(n.ID))
		if op.Start < parent.Start || op.Stop > parent.Stop+1e-9 {
			t.Fatalf("O%d [%v,%v] escapes parent O%d [%v,%v]",
				n.ID, op.Start, op.Stop, parent.ID, parent.Start, parent.Stop)
		}
	}
}

func TestV1ContentionInflatesTheRightOperators(t *testing.T) {
	baseEng, q2 := newRig(t, 3)
	base, err := baseEng.Run(q2, 1000, "base")
	if err != nil {
		t.Fatal(err)
	}

	hotEng, q2hot := newRig(t, 3)
	// External workload on V' (same pool as V1) during the run window.
	hotEng.SAN.AddLoad(sanperf.Load{
		Volume: "vol-Vp", Iv: simtime.NewInterval(0, 100000),
		ReadIOPS: 450, WriteIOPS: 100, Source: "wl-contention",
	})
	hot, err := hotEng.Run(q2hot, 1000, "hot")
	if err != nil {
		t.Fatal(err)
	}

	if ratio := float64(hot.Duration()) / float64(base.Duration()); ratio < 1.5 {
		t.Fatalf("V1 contention should slow the query substantially, got %.2fx", ratio)
	}
	// The V1 leaves (O8, O22) inflate strongly.
	for _, id := range []int{8, 22} {
		r := float64(hot.Op(id).Recorded) / float64(base.Op(id).Recorded)
		if r < 2 {
			t.Errorf("O%d should inflate under V1 contention, got %.2fx", id, r)
		}
	}
	// Their inclusive ancestors inflate too (event propagation).
	for _, id := range []int{2, 3, 6, 7, 17, 18, 20, 21} {
		r := float64(hot.Op(id).Recorded) / float64(base.Op(id).Recorded)
		if r < 1.5 {
			t.Errorf("ancestor O%d should inherit the slowdown, got %.2fx", id, r)
		}
	}
	// V2 leaves stay calm (within noise).
	for _, id := range []int{10, 13, 15, 19, 23, 25} {
		r := float64(hot.Op(id).Recorded) / float64(base.Op(id).Recorded)
		if r > 1.3 {
			t.Errorf("V2 leaf O%d should not inflate, got %.2fx", id, r)
		}
	}
	// Blocking-build nodes record own time only and stay calm.
	for _, id := range []int{5, 16, 24} {
		r := float64(hot.Op(id).Recorded) / float64(base.Op(id).Recorded)
		if r > 1.3 {
			t.Errorf("blocking node O%d should record stable own time, got %.2fx", id, r)
		}
	}
}

func TestLockWaitDelaysPartsuppLeaves(t *testing.T) {
	eng, q2 := newRig(t, 4)
	base, _ := eng.Run(q2, 1000, "base")

	eng2, q22 := newRig(t, 4)
	eng2.Locks.AddHold(dbsys.Hold{
		Table: dbsys.TPartsupp,
		Iv:    simtime.NewInterval(0, 1200),
		Mode:  dbsys.LockExclusive, Holder: "txn-batch",
	})
	locked, _ := eng2.Run(q22, 1000, "locked")
	if locked.LockWait <= 0 {
		t.Fatalf("lock wait not recorded")
	}
	if locked.Duration() <= base.Duration() {
		t.Fatalf("lock contention should extend the run: %v vs %v", locked.Duration(), base.Duration())
	}
	if base.LockWait != 0 {
		t.Fatalf("baseline should have no lock wait")
	}
}

func TestDataPropertyChangeShiftsActualRows(t *testing.T) {
	eng, q2 := newRig(t, 5)
	before, _ := eng.Run(q2, 0, "before")
	if err := eng.Cat.ScaleRows(dbsys.TPartsupp, 1.6); err != nil {
		t.Fatal(err)
	}
	after, _ := eng.Run(q2, 10000, "after")

	// Actual record counts on partsupp operators grow; estimates do not.
	for _, id := range []int{8, 22} {
		if after.Op(id).ActRows <= before.Op(id).ActRows*1.3 {
			t.Errorf("O%d actual rows should grow ~1.6x: %v -> %v",
				id, before.Op(id).ActRows, after.Op(id).ActRows)
		}
		if after.Plan.MustNode(id).EstRows != before.Plan.MustNode(id).EstRows {
			t.Errorf("O%d estimates should stay stale", id)
		}
	}
	// And the run gets slower (more I/O).
	if after.Duration() <= before.Duration() {
		t.Errorf("grown table should slow the run: %v -> %v", before.Duration(), after.Duration())
	}
}

func TestCPUContentionSlowsRun(t *testing.T) {
	eng, q2 := newRig(t, 6)
	base, _ := eng.Run(q2, 1000, "base")
	eng2, q22 := newRig(t, 6)
	eng2.CPULoad.Add("cpu", simtime.NewInterval(0, 100000), 0.8, "cpu-hog")
	slow, _ := eng2.Run(q22, 1000, "slow")
	if slow.Duration() <= base.Duration() {
		t.Fatalf("CPU load should slow the run: %v vs %v", base.Duration(), slow.Duration())
	}
}

func TestDeterminism(t *testing.T) {
	engA, q2a := newRig(t, 7)
	engB, q2b := newRig(t, 7)
	ra, _ := engA.Run(q2a, 500, "r")
	rb, _ := engB.Run(q2b, 500, "r")
	if ra.Duration() != rb.Duration() {
		t.Fatalf("same seed must reproduce identical runs: %v vs %v", ra.Duration(), rb.Duration())
	}
	for _, op := range ra.Ops {
		if other := rb.Op(op.ID); other == nil || other.Recorded != op.Recorded {
			t.Fatalf("O%d differs across identical runs", op.ID)
		}
	}
}

func TestFeedBackLoadAppearsInSANModel(t *testing.T) {
	eng, q2 := newRig(t, 8)
	eng.RecordLoad = true
	rec, _ := eng.Run(q2, 1000, "run-load")
	mid := rec.Op(8).Start.Add(rec.Op(8).Stop.Sub(rec.Op(8).Start) / 2)
	if iops := eng.SAN.VolumeReadIOPS("vol-V1", mid); iops <= 0 {
		t.Fatalf("query I/O should appear as V1 load during O8, got %v", iops)
	}
	// Without RecordLoad nothing is fed back.
	eng2, q22 := newRig(t, 8)
	rec2, _ := eng2.Run(q22, 1000, "run-noload")
	mid2 := rec2.Op(8).Start.Add(rec2.Op(8).Stop.Sub(rec2.Op(8).Start) / 2)
	if iops := eng2.SAN.VolumeReadIOPS("vol-V1", mid2); iops != 0 {
		t.Fatalf("no feedback expected, got %v", iops)
	}
}

func TestNoiseSpreadsRunTimes(t *testing.T) {
	eng, q2 := newRig(t, 9)
	var durs []float64
	for i := 0; i < 10; i++ {
		rec, _ := eng.Run(q2, simtime.Time(i*3600), "r")
		durs = append(durs, float64(rec.Duration()))
	}
	min, max := durs[0], durs[0]
	for _, d := range durs {
		min = math.Min(min, d)
		max = math.Max(max, d)
	}
	if max/min < 1.01 {
		t.Fatalf("noise should spread run times: min=%v max=%v", min, max)
	}
	if max/min > 2.0 {
		t.Fatalf("noise too violent for satisfactory-run modelling: min=%v max=%v", min, max)
	}
}

func TestOtherQueriesExecute(t *testing.T) {
	eng, _ := newRig(t, 10)
	for _, build := range []func() *plan.Plan{plan.BuildQ6, plan.BuildQ14, plan.BuildQ5} {
		p := build()
		plan.EstimateInto(p, eng.StatsBase.RowsOf)
		rec, err := eng.Run(p, 0, "r-"+p.Query)
		if err != nil {
			t.Fatalf("%s: %v", p.Query, err)
		}
		if rec.Duration() <= 0 {
			t.Fatalf("%s: nonpositive duration", p.Query)
		}
	}
}
