package opt

import (
	"math"

	"diads/internal/dbsys"
	"diads/internal/plan"
)

// CostPlan returns the optimizer's cost for a plan under the catalog's
// current schema and a statistics snapshot and parameter set, in
// abstract page-fetch units. The shape of the model follows PostgreSQL's:
// sequential and random page costs for I/O, a per-tuple CPU cost,
// n-log-n sorts, and nested-loop probe costs that grow with the product
// of input cardinalities.
func (o *Optimizer) CostPlan(p *plan.Plan, stats dbsys.Stats, params *dbsys.Params) float64 {
	var pr pricer
	pr.reset(o.Cat.Schema(), stats, params.Settings())
	return pr.price(p)
}

// pricer prices plans under one schema, statistics snapshot and
// parameter set, reusing its cardinality storage from one plan to the
// next.
type pricer struct {
	schema                      dbsys.Schema
	stats                       dbsys.Stats
	seqCost, randCost, cpuTuple float64
	cards                       plan.Cardinalities
}

// reset points the pricer at a state, keeping its cardinality storage.
func (pr *pricer) reset(s dbsys.Schema, stats dbsys.Stats, set dbsys.Settings) {
	pr.schema, pr.stats = s, stats
	pr.seqCost = set.Get(dbsys.ParamSeqPageCost)
	pr.randCost = set.Get(dbsys.ParamRandomPageCost)
	pr.cpuTuple = set.Get(dbsys.ParamCPUTupleCost)
}

// price returns p's cost.
func (pr *pricer) price(p *plan.Plan) float64 {
	plan.CardinalityInto(&pr.cards, p, pr.stats.RowsOf, plan.UnitScale)
	return pr.cost(p.Root)
}

// pagesOf returns the table's heap pages under the snapshot's row count.
func (pr *pricer) pagesOf(table string) float64 {
	rows := pr.stats.RowsOf(table)
	width, ok := pr.schema.RowWidth(table)
	if !ok {
		width = 128
	}
	pages := float64(rows) * float64(width) / float64(dbsys.PageSizeKB*1024)
	return math.Max(1, pages)
}

// cost returns the cost of the subtree under n, subplans included.
func (pr *pricer) cost(n *plan.Node) float64 {
	rowsPerExec := pr.cards.RowsPerExec
	cpuTuple := pr.cpuTuple
	rows := rowsPerExec[n.ID]
	var own float64
	switch n.Type {
	case plan.OpSeqScan:
		own = pr.pagesOf(n.Table)*pr.seqCost + float64(pr.stats.RowsOf(n.Table))*cpuTuple
	case plan.OpIndexScan:
		corr := 0.5
		if ix, ok := pr.schema.Index(n.Index); ok {
			corr = ix.Correlation
		}
		descent := math.Log2(pr.pagesOf(n.Table) + 2)
		perFetch := pr.randCost*(1-corr) + pr.seqCost*corr
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
		// Each outer row probes the inner; the probe touches the
		// inner's rows unless it is a parameterized (AbsRows) lookup.
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
		total += pr.cost(ch)
	}
	for _, s := range n.SubPlans {
		subLoops := 1.0
		if len(n.Children) > 0 {
			subLoops = math.Max(1, rowsPerExec[n.Children[0].ID])
		}
		total += pr.cost(s) * subLoops
	}
	return total
}
