package opt

import (
	"fmt"
	"math"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/plan"
)

// The long way: Q2 planning as it was before candidates were priced in
// place — every candidate built as a full plan, cardinalities in three
// maps per plan, row widths read through Catalog.Table's copy. It shares
// nothing with the optimizer under test but BuildQ2, the one description
// of Q2's shape.

// refCardinality is the map-based cardinality walk.
func refCardinality(p *plan.Plan, rowsOf func(string) int64, absScale func(string) float64) (rowsPerExec, loops, total map[int]float64) {
	rowsPerExec = make(map[int]float64, p.NumOperators())
	loops = make(map[int]float64, p.NumOperators())
	total = make(map[int]float64, p.NumOperators())
	var rows func(n *plan.Node) float64
	rows = func(n *plan.Node) float64 {
		var out float64
		switch {
		case n.IsLeaf():
			if n.AbsRows > 0 {
				out = n.AbsRows * absScale(n.Table)
			} else {
				out = float64(rowsOf(n.Table)) * n.Sel
			}
		case n.Type == plan.OpAggregate:
			for _, ch := range n.Children {
				rows(ch)
			}
			out = 1
		case n.Type == plan.OpLimit:
			child := rows(n.Children[0])
			out = math.Min(float64(n.LimitN), child)
			if n.LimitN <= 0 {
				out = child
			}
		case n.Type == plan.OpHashJoin || n.Type == plan.OpMergeJoin || n.Type == plan.OpNestedLoop:
			outer := rows(n.Children[0])
			for _, ch := range n.Children[1:] {
				rows(ch)
			}
			out = n.EffectiveFanout() * outer
		default:
			out = rows(n.Children[0])
		}
		for _, s := range n.SubPlans {
			rows(s)
		}
		if out < 0 {
			out = 0
		}
		rowsPerExec[n.ID] = out
		return out
	}
	rows(p.Root)
	var walk func(n *plan.Node, l float64)
	walk = func(n *plan.Node, l float64) {
		loops[n.ID] = l
		for _, ch := range n.Children {
			walk(ch, l)
		}
		for _, s := range n.SubPlans {
			subLoops := l
			if len(n.Children) > 0 {
				subLoops = l * math.Max(1, rowsPerExec[n.Children[0].ID])
			}
			walk(s, subLoops)
		}
	}
	walk(p.Root, 1)
	for id, r := range rowsPerExec {
		total[id] = r * loops[id]
	}
	return rowsPerExec, loops, total
}

// refCostPlan is the closure-based cost walk over refCardinality.
func refCostPlan(o *Optimizer, p *plan.Plan, stats dbsys.Stats, params *dbsys.Params) float64 {
	seqCost := params.Settings().Get(dbsys.ParamSeqPageCost)
	randCost := params.Settings().Get(dbsys.ParamRandomPageCost)
	cpuTuple := params.Settings().Get(dbsys.ParamCPUTupleCost)
	rowsPerExec, _, _ := refCardinality(p, stats.RowsOf, func(string) float64 { return 1 })
	pagesOf := func(table string) float64 {
		rows := stats.RowsOf(table)
		t, ok := o.Cat.Table(table)
		width := 128
		if ok {
			width = t.RowWidthB
		}
		pages := float64(rows) * float64(width) / float64(dbsys.PageSizeKB*1024)
		return math.Max(1, pages)
	}
	var cost func(n *plan.Node) float64
	cost = func(n *plan.Node) float64 {
		rows := rowsPerExec[n.ID]
		var own float64
		switch n.Type {
		case plan.OpSeqScan:
			own = pagesOf(n.Table)*seqCost + float64(stats.RowsOf(n.Table))*cpuTuple
		case plan.OpIndexScan:
			corr := 0.5
			if ix, ok := o.Cat.Index(n.Index); ok {
				corr = ix.Correlation
			}
			descent := math.Log2(pagesOf(n.Table) + 2)
			perFetch := randCost*(1-corr) + seqCost*corr
			own = descent + rows*perFetch + rows*cpuTuple
		case plan.OpSort:
			n2 := rows + 2
			own = 2 * n2 * math.Log2(n2) * cpuTuple
		case plan.OpHash:
			own = rows * cpuTuple * 1.5
		case plan.OpHashJoin, plan.OpMergeJoin:
			var inputs float64
			for _, ch := range n.Children {
				inputs += rowsPerExec[ch.ID]
			}
			own = inputs * cpuTuple
		case plan.OpNestedLoop:
			outer := rowsPerExec[n.Children[0].ID]
			var inner float64
			if len(n.Children) > 1 {
				inner = rowsPerExec[n.Children[1].ID]
			}
			own = outer * math.Max(1, inner) * cpuTuple
		case plan.OpAggregate:
			var inputs float64
			for _, ch := range n.Children {
				inputs += rowsPerExec[ch.ID]
			}
			own = inputs * cpuTuple
		case plan.OpMaterialize:
			own = rows * cpuTuple * 0.5
		case plan.OpLimit:
			own = 0
		}
		total := own
		for _, ch := range n.Children {
			total += cost(ch)
		}
		for _, s := range n.SubPlans {
			subLoops := 1.0
			if len(n.Children) > 0 {
				subLoops = math.Max(1, rowsPerExec[n.Children[0].ID])
			}
			total += cost(s) * subLoops
		}
		return total
	}
	return cost(p.Root)
}

// refCandidates enumerates Q2's candidate choices in the optimizer's
// order.
func refCandidates(o *Optimizer, params *dbsys.Params) []plan.Q2Choices {
	indexEnabled := params.Settings().Bool(dbsys.ParamEnableIndexScan)
	accessAlternatives := func(table, column string) []plan.AccessSpec {
		alts := []plan.AccessSpec{{Type: plan.OpSeqScan}}
		if indexEnabled {
			if ix, ok := o.Cat.Schema().IndexOn(table, column); ok {
				alts = append([]plan.AccessSpec{{Type: plan.OpIndexScan, Index: ix.Name}}, alts...)
			}
		}
		return alts
	}
	partAlts := accessAlternatives(dbsys.TPart, "p_type")
	psAlts := accessAlternatives(dbsys.TPartsupp, "ps_partkey")
	nationAccess := accessAlternatives(dbsys.TNation, "n_nationkey")[0]
	supplierAccess := accessAlternatives(dbsys.TSupplier, "s_suppkey")[0]
	joins := []plan.OpType{}
	if params.Settings().Bool(dbsys.ParamEnableHashJoin) {
		joins = append(joins, plan.OpHashJoin)
	}
	if params.Settings().Bool(dbsys.ParamEnableNestLoop) || len(joins) == 0 {
		joins = append(joins, plan.OpNestedLoop)
	}
	var out []plan.Q2Choices
	for _, pa := range partAlts {
		for _, ma := range psAlts {
			for _, sa := range psAlts {
				for _, j := range joins {
					out = append(out, plan.Q2Choices{
						PartAccess:        pa,
						PartsuppAccess:    ma,
						SubPartsuppAccess: sa,
						SubNationAccess:   nationAccess,
						SubSupplierAccess: supplierAccess,
						MainJoin:          j,
					})
				}
			}
		}
	}
	return out
}

// refPlanQ2 picks the cheapest full candidate plan, strictly cheaper
// winning, and estimates its rows through the map walk.
func refPlanQ2(o *Optimizer, stats dbsys.Stats, params *dbsys.Params) (*plan.Plan, error) {
	var best *plan.Plan
	bestCost := math.Inf(1)
	for _, ch := range refCandidates(o, params) {
		cand := plan.BuildQ2(ch)
		if cost := refCostPlan(o, cand, stats, params); cost < bestCost {
			bestCost = cost
			best = cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("opt: no Q2 plan has a finite cost under %s", params)
	}
	_, _, total := refCardinality(best, stats.RowsOf, func(string) float64 { return 1 })
	for _, n := range best.Nodes() {
		n.EstRows = total[n.ID]
	}
	return best, nil
}

// TestPlanQ2MatchesLongWayReference prices every Q2 candidate in place
// and the long way, over a grid of enable flags, page and tuple costs,
// index sets and statistics snapshots: every candidate's cost must agree
// to the bit, and the chosen plan in signature and every node's EstRows,
// or both must fail with the same error.
func TestPlanQ2MatchesLongWayReference(t *testing.T) {
	q2Indexes := []string{dbsys.IdxPartType, dbsys.IdxPartsuppPart, dbsys.IdxNationKey, dbsys.IdxSupplierKey}
	base := dbsys.NewTPCHCatalog(1.0, "vol-V1", "vol-V2").Snapshot().Rows
	scaled := func(factors map[string]float64) dbsys.Stats {
		rows := make(map[string]int64, len(base))
		for table, n := range base {
			rows[table] = n
		}
		for table, f := range factors {
			rows[table] = int64(float64(rows[table]) * f)
		}
		return dbsys.Stats{Rows: rows} // unversioned: no memo
	}
	snapshots := []dbsys.Stats{
		scaled(nil),
		scaled(map[string]float64{dbsys.TPartsupp: 4, dbsys.TSupplier: 2}),
		scaled(map[string]float64{dbsys.TPart: 0.05, dbsys.TPartsupp: 0.05, dbsys.TNation: 40}),
	}
	type costs struct{ rpc, cpu float64 }
	costGrid := []costs{{4, 0.01}, {4, 0.05}, {40, 0.01}, {40, 0.05}, {4, 1e308}}

	plans, failures := 0, 0
	for mask := 0; mask < 1<<len(q2Indexes); mask++ {
		cat := dbsys.NewTPCHCatalog(1.0, "vol-V1", "vol-V2")
		for i, idx := range q2Indexes {
			if mask&(1<<i) != 0 && !cat.DropIndex(idx) {
				t.Fatalf("drop %s failed", idx)
			}
		}
		o := New(cat)
		for flags := 0; flags < 8; flags++ {
			for _, c := range costGrid {
				params := dbsys.DefaultParams()
				params.Set(dbsys.ParamEnableIndexScan, float64(flags&1))
				params.Set(dbsys.ParamEnableHashJoin, float64(flags>>1&1))
				params.Set(dbsys.ParamEnableNestLoop, float64(flags>>2&1))
				params.Set(dbsys.ParamRandomPageCost, c.rpc)
				params.Set(dbsys.ParamCPUTupleCost, c.cpu)
				for si, stats := range snapshots {
					where := fmt.Sprintf("dropped %04b flags %03b rpc %g cpu %g stats %d", mask, flags, c.rpc, c.cpu, si)

					var pr pricer
					pr.reset(cat.Schema(), stats, params.Settings())
					var scratch plan.Q2Scratch
					for _, ch := range refCandidates(o, params) {
						got := pr.price(scratch.Build(ch))
						want := refCostPlan(o, plan.BuildQ2(ch), stats, params)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: candidate %+v costs %v in place, %v the long way", where, ch, got, want)
						}
					}

					got, errGot := Plan("Q2", cat.Schema(), stats, params.Settings())
					want, errWant := refPlanQ2(o, stats, params)
					if errGot != nil || errWant != nil {
						if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
							t.Fatalf("%s: error %v, long way %v", where, errGot, errWant)
						}
						failures++
						continue
					}
					plans++
					if got.Signature() != want.Signature() {
						t.Fatalf("%s: chose\n%s\nlong way chose\n%s", where, got.Render(), want.Render())
					}
					for i, n := range got.Nodes() {
						if w := want.Nodes()[i].EstRows; math.Float64bits(n.EstRows) != math.Float64bits(w) {
							t.Fatalf("%s: O%d EstRows %v, long way %v", where, n.ID, n.EstRows, w)
						}
					}
				}
			}
		}
	}
	if plans == 0 || failures == 0 {
		t.Fatalf("grid planned %d and failed %d: both outcomes must be covered", plans, failures)
	}
}
