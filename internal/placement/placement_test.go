package placement

import (
	"testing"

	"diads/internal/dbsys"
	"diads/internal/sanperf"
	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/workload"
)

func planner(t *testing.T, loadP1 bool) *Planner {
	t.Helper()
	tb, err := testbed.NewFigure1(81)
	if err != nil {
		t.Fatal(err)
	}
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: 3},
	}
	horizon := simtime.Time(10*simtime.Minute) + simtime.Time(3*30*simtime.Minute)
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, horizon)
	}
	if loadP1 {
		tb.SAN.AddLoad(sanperf.Load{
			Volume: testbed.VolV3, Iv: simtime.NewInterval(0, horizon),
			ReadIOPS: 400, WriteIOPS: 100, Source: "wl-p1",
		})
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	run := tb.RunsFor("Q2")[1]
	return &Planner{Cfg: tb.Cfg, SAN: tb.SAN, Cat: tb.Cat, Baseline: run, At: run.Start}
}

func TestRankPrefersWiderIdlePool(t *testing.T) {
	p := planner(t, false)
	best, err := p.Best(dbsys.TPartsupp)
	if err != nil {
		t.Fatal(err)
	}
	// Both pools near idle: P2's six spindles beat P1's four.
	if best.Pool != testbed.PoolP2 {
		t.Fatalf("idle SAN should prefer the wider pool, got %v", best)
	}
}

func TestRankAvoidsLoadedPool(t *testing.T) {
	p := planner(t, true)
	opts, err := p.Rank(dbsys.TPartsupp)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 2 {
		t.Fatalf("two pools expected: %v", opts)
	}
	if opts[0].Pool != testbed.PoolP2 {
		t.Fatalf("loaded P1 should rank last: %v", opts)
	}
	// Moving partsupp off the loaded pool predicts a material speedup.
	var p1, p2 float64
	for _, o := range opts {
		switch o.Pool {
		case testbed.PoolP1:
			p1 = o.PredictedSeconds
		case testbed.PoolP2:
			p2 = o.PredictedSeconds
		}
	}
	if p2 >= p1 {
		t.Fatalf("P2 placement should predict faster runs: P1=%.2fs P2=%.2fs", p1, p2)
	}
}

func TestRankErrors(t *testing.T) {
	p := planner(t, false)
	if _, err := p.Rank("no-such-table"); err == nil {
		t.Fatalf("unknown table should error")
	}
}

func TestPredictionsArePositive(t *testing.T) {
	p := planner(t, true)
	for _, table := range []string{dbsys.TPartsupp, dbsys.TPart, dbsys.TSupplier} {
		opts, err := p.Rank(table)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range opts {
			if o.PredictedSeconds <= 0 {
				t.Errorf("nonpositive prediction: %v", o)
			}
		}
	}
}
