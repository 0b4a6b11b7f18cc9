package opt

import (
	"math"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/plan"
)

func setup(t *testing.T) (*Optimizer, dbsys.Stats, *dbsys.Params) {
	t.Helper()
	cat := dbsys.NewTPCHCatalog(1.0, "vol-V1", "vol-V2")
	return New(cat), cat.Snapshot(), dbsys.DefaultParams()
}

func TestQ2DefaultPlanMatchesFigure1(t *testing.T) {
	o, stats, params := setup(t)
	p, err := o.PlanQuery("Q2", stats, params)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumOperators() != 25 || len(p.Leaves()) != 9 {
		t.Fatalf("default Q2 plan should be the 25-op/9-leaf Figure 1 shape, got %d/%d:\n%s",
			p.NumOperators(), len(p.Leaves()), p.Render())
	}
	// Both partsupp reads use the partkey index.
	for _, l := range p.LeavesOnTable(dbsys.TPartsupp) {
		if l.Type != plan.OpIndexScan || l.Index != dbsys.IdxPartsuppPart {
			t.Fatalf("partsupp leaf O%d: got %s/%s", l.ID, l.Type, l.Index)
		}
	}
	// O4 is the part index scan, as in Figure 1.
	if o4 := p.MustNode(4); o4.Type != plan.OpIndexScan || o4.Index != dbsys.IdxPartType {
		t.Fatalf("O4 should be an index scan on part: got %s/%s", o4.Type, o4.Index)
	}
	// Estimates are populated.
	if p.MustNode(4).EstRows <= 0 {
		t.Fatalf("EstRows not populated on O4")
	}
}

func TestDroppingIndexChangesPlan(t *testing.T) {
	o, stats, params := setup(t)
	before, _ := o.PlanQuery("Q2", stats, params)
	if !o.Cat.DropIndex(dbsys.IdxPartsuppPart) {
		t.Fatal("drop failed")
	}
	after, _ := o.PlanQuery("Q2", stats, params)
	if before.Signature() == after.Signature() {
		t.Fatalf("dropping the partsupp index must change the plan")
	}
	for _, l := range after.LeavesOnTable(dbsys.TPartsupp) {
		if l.Type != plan.OpSeqScan {
			t.Fatalf("without the index partsupp must be seq-scanned, got %s", l.Type)
		}
	}
	o.Cat.RestoreIndex(dbsys.IdxPartsuppPart)
	restored, _ := o.PlanQuery("Q2", stats, params)
	if restored.Signature() != before.Signature() {
		t.Fatalf("restoring the index should restore the plan")
	}
}

func TestRandomPageCostFlipsAccessPath(t *testing.T) {
	o, stats, params := setup(t)
	before, _ := o.PlanQuery("Q2", stats, params)
	params.Set(dbsys.ParamRandomPageCost, 40)
	after, _ := o.PlanQuery("Q2", stats, params)
	if before.Signature() == after.Signature() {
		t.Fatalf("a 10x random_page_cost increase should flip at least one access path")
	}
	// The weakly-correlated part index loses first.
	if o4 := after.MustNode(4); o4.Type != plan.OpSeqScan {
		t.Fatalf("part access should flip to seq scan at rpc=40:\n%s", after.Render())
	}
	// At an extreme setting even the highly-correlated partsupp index
	// loses to a full scan.
	params.Set(dbsys.ParamRandomPageCost, 100)
	extreme, _ := o.PlanQuery("Q2", stats, params)
	main := extreme.LeavesOnTable(dbsys.TPartsupp)[0]
	if main.Type != plan.OpSeqScan {
		t.Fatalf("main partsupp access should flip to seq scan at rpc=100:\n%s", extreme.Render())
	}
}

func TestDisablingIndexScansForcesSeqScans(t *testing.T) {
	o, stats, params := setup(t)
	params.Set(dbsys.ParamEnableIndexScan, 0)
	p, _ := o.PlanQuery("Q2", stats, params)
	for _, l := range p.Leaves() {
		if l.Type == plan.OpIndexScan {
			t.Fatalf("enable_indexscan=0 must eliminate index scans:\n%s", p.Render())
		}
	}
}

func TestDisablingHashJoinSwitchesStrategy(t *testing.T) {
	o, stats, params := setup(t)
	params.Set(dbsys.ParamEnableHashJoin, 0)
	p, _ := o.PlanQuery("Q2", stats, params)
	if p.MustNode(3).Type == plan.OpHashJoin {
		t.Fatalf("enable_hashjoin=0 must avoid hash join at the top:\n%s", p.Render())
	}
}

func TestCostMonotoneInTableSize(t *testing.T) {
	o, stats, params := setup(t)
	p, _ := o.PlanQuery("Q2", stats, params)
	base := o.CostPlan(p, stats, params)
	grown := stats.Clone()
	grown.Rows[dbsys.TPartsupp] *= 2
	if o.CostPlan(p, grown, params) <= base {
		t.Fatalf("doubling partsupp should raise the plan's cost")
	}
}

func TestCostPositiveForAllQueries(t *testing.T) {
	o, stats, params := setup(t)
	for _, q := range []string{"Q2", "Q5", "Q6", "Q14"} {
		p, err := o.PlanQuery(q, stats, params)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if c := o.CostPlan(p, stats, params); c <= 0 {
			t.Fatalf("%s: nonpositive cost %v", q, c)
		}
	}
}

func TestUnknownQueryRejected(t *testing.T) {
	o, stats, params := setup(t)
	if _, err := o.PlanQuery("Q99", stats, params); err == nil {
		t.Fatalf("unknown query should error")
	}
}

// TestNoFiniteCostIsAnError: parameters under which every Q2 candidate
// costs +Inf or NaN leave no plan to choose, and PlanQuery says so
// instead of returning nothing.
func TestNoFiniteCostIsAnError(t *testing.T) {
	o, stats, params := setup(t)
	params.Set(dbsys.ParamCPUTupleCost, 1e308)
	if p, err := o.PlanQuery("Q2", stats, params); err == nil {
		t.Fatalf("cpu_tuple_cost 1e308 planned:\n%s", p.Render())
	}
	params.Set(dbsys.ParamSeqPageCost, -1e308)
	if _, err := o.PlanQuery("Q2", stats, params); err == nil {
		t.Fatal("NaN costs planned")
	}
}

func TestStaleStatsStillPickIndexPlan(t *testing.T) {
	// A data-property change (partsupp doubles) without re-ANALYZE leaves
	// the optimizer choosing from the old snapshot: the plan must stay
	// identical — that is why scenario 3's Module PD reports "no plan
	// change" while record counts shift.
	o, stats, params := setup(t)
	before, _ := o.PlanQuery("Q2", stats, params)
	if err := o.Cat.ScaleRows(dbsys.TPartsupp, 2.0); err != nil {
		t.Fatal(err)
	}
	after, _ := o.PlanQuery("Q2", stats, params) // same stale snapshot
	if before.Signature() != after.Signature() {
		t.Fatalf("stale statistics must keep the plan unchanged")
	}
}

// TestMemoMatchesFreshPlanning walks the optimizer's inputs through every
// mutation kind — index drop and restore, Params.Set, a statistics
// re-snapshot, SetRows and ScaleRows — and after each holds the memoised
// plan to one planned from scratch (unversioned statistics bypass the
// memo): same structure, same estimates to the bit. A repeated call under
// an unchanged state must return the memoised plan itself. The walk flips
// every Q2 decision point plan.TestPlanSignatureMemo enumerates, each both
// ways.
func TestMemoMatchesFreshPlanning(t *testing.T) {
	o, stats, params := setup(t)
	cat := o.Cat
	toggle := func(ix string) []func() {
		return []func(){func() { cat.DropIndex(ix) }, func() { cat.RestoreIndex(ix) }}
	}
	set := func(name string, v float64) func() { return func() { params.Set(name, v) } }
	steps := []func(){func() {}}
	for _, ix := range []string{dbsys.IdxPartType, dbsys.IdxPartsuppPart, dbsys.IdxNationKey, dbsys.IdxSupplierKey} {
		steps = append(steps, toggle(ix)...)
	}
	steps = append(steps,
		set(dbsys.ParamEnableHashJoin, 0), set(dbsys.ParamEnableHashJoin, 1),
		set(dbsys.ParamRandomPageCost, 40), set(dbsys.ParamRandomPageCost, 100), set(dbsys.ParamRandomPageCost, 4),
		set(dbsys.ParamEnableIndexScan, 0), set(dbsys.ParamEnableIndexScan, 1),
		func() { cat.DropIndex(dbsys.IdxPartsuppPart) }, set(dbsys.ParamEnableNestLoop, 0), func() { cat.RestoreIndex(dbsys.IdxPartsuppPart) },
		func() { _ = cat.ScaleRows(dbsys.TPartsupp, 40) },
		func() { stats = cat.Snapshot() },
		func() { _ = cat.SetRows(dbsys.TPart, 50) },
		func() { stats = cat.Snapshot() },
		func() { _ = cat.SetRows(dbsys.TPart, 2_000_000) },
		func() { stats = stats.Clone() },
	)
	// Decision point -> chosen operator types seen.
	seen := map[string]map[plan.OpType]bool{}
	note := func(point string, t plan.OpType) {
		if seen[point] == nil {
			seen[point] = map[plan.OpType]bool{}
		}
		seen[point][t] = true
	}
	for i, step := range steps {
		step()
		for _, q := range []string{"Q2", "Q5", "Q6", "Q14"} {
			memo, err := o.PlanQuery(q, stats, params)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := o.PlanQuery(q, stats, params); again != memo {
				t.Fatalf("step %d %s: an unchanged state re-planned", i, q)
			}
			fresh, err := New(cat).PlanQuery(q, dbsys.Stats{Rows: stats.Rows}, params)
			if err != nil {
				t.Fatal(err)
			}
			if memo == fresh || memo.Render() != fresh.Render() || memo.Signature() != fresh.Signature() {
				t.Fatalf("step %d %s: memoised plan\n%s\nfresh plan\n%s", i, q, memo.Render(), fresh.Render())
			}
			for j, n := range memo.Nodes() {
				if math.Float64bits(n.EstRows) != math.Float64bits(fresh.Nodes()[j].EstRows) {
					t.Fatalf("step %d %s O%d: memoised estimate %v, fresh %v", i, q, n.ID, n.EstRows, fresh.Nodes()[j].EstRows)
				}
			}
			if q != "Q2" {
				continue
			}
			for _, l := range memo.Leaves() {
				if l.Table != dbsys.TRegion && (l.Table != dbsys.TNation || l.Alias != "") && (l.Table != dbsys.TSupplier || l.Alias != "") {
					note(l.Table+"/"+l.Alias, l.Type)
				}
			}
			note("main-join", memo.Root.Children[0].Children[0].Type)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("decision points seen: %v", seen)
	}
	for point, types := range seen {
		if len(types) != 2 {
			t.Errorf("decision point %s took only %v", point, types)
		}
	}
}
