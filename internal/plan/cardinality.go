package plan

import "math"

// Cardinalities holds per-operator row counts and execution counts for one
// query run, computed either from optimizer statistics (estimates) or from
// actual table cardinalities (actuals). Each slice is indexed by operator
// ID (IDs are dense pre-order numbers from 1; index 0 is unused).
type Cardinalities struct {
	// RowsPerExec is the operator's output rows per execution.
	RowsPerExec []float64
	// Loops is how many times the operator executes per query run.
	// Operators inside a correlated subplan run once per row of the
	// attachment operator's outer input.
	Loops []float64
	// Total is RowsPerExec * Loops — the record count the paper's
	// per-operator monitoring reports.
	Total []float64
}

// Cardinality computes per-operator cardinalities for p.
//
// rowsOf supplies table cardinalities (statistics snapshot for estimates,
// live catalog for actuals). absScale supplies the growth ratio applied to
// AbsRows leaves (actual rows / statistics rows; use 1 for estimates).
//
// Cardinality semantics per operator type:
//   - Seq/Index Scan: table rows x Sel, or AbsRows x absScale.
//   - Joins: Fanout x outer-child rows.
//   - Sort/Hash/Materialize: pass through child rows.
//   - Aggregate: 1 row per execution.
//   - Limit: min(LimitN, child rows).
//
// Nested-loop inners are treated as parameterized lookups: every child of
// an operator executes once per execution of the operator itself, with the
// per-row lookup already captured by the leaf's AbsRows.
func Cardinality(p *Plan, rowsOf func(table string) int64, absScale func(table string) float64) Cardinalities {
	var c Cardinalities
	CardinalityInto(&c, p, rowsOf, absScale)
	return c
}

// CardinalityInto is Cardinality writing into c, whose slices it reuses
// when they have room for p's operators.
func CardinalityInto(c *Cardinalities, p *Plan, rowsOf func(table string) int64, absScale func(table string) float64) {
	n := len(p.nodes) + 1
	if cap(c.Total) < n || cap(c.Loops) < n || cap(c.RowsPerExec) < n {
		all := make([]float64, 3*n)
		c.RowsPerExec, c.Loops, c.Total = all[:n:n], all[n:2*n:2*n], all[2*n:]
	}
	c.RowsPerExec, c.Loops, c.Total = c.RowsPerExec[:n], c.Loops[:n], c.Total[:n]
	w := cardWalk{c: c, rowsOf: rowsOf, absScale: absScale}
	w.rows(p.Root)
	w.loops(p.Root, 1)
	for id, r := range c.RowsPerExec {
		c.Total[id] = r * c.Loops[id]
	}
}

// cardWalk is one Cardinality computation's walks over the tree.
type cardWalk struct {
	c        *Cardinalities
	rowsOf   func(table string) int64
	absScale func(table string) float64
}

// rows fills RowsPerExec for n's subtree and returns n's.
func (w *cardWalk) rows(n *Node) float64 {
	var out float64
	switch {
	case n.IsLeaf():
		if n.AbsRows > 0 {
			out = n.AbsRows * w.absScale(n.Table)
		} else {
			out = float64(w.rowsOf(n.Table)) * n.Sel
		}
	case n.Type == OpAggregate:
		for _, ch := range n.Children {
			w.rows(ch)
		}
		out = 1
	case n.Type == OpLimit:
		child := w.rows(n.Children[0])
		out = math.Min(float64(n.LimitN), child)
		if n.LimitN <= 0 {
			out = child
		}
	case n.Type == OpHashJoin || n.Type == OpMergeJoin || n.Type == OpNestedLoop:
		outer := w.rows(n.Children[0])
		for _, ch := range n.Children[1:] {
			w.rows(ch)
		}
		out = n.EffectiveFanout() * outer
	default: // Sort, Hash, Materialize pass through.
		out = w.rows(n.Children[0])
	}
	// Subplans contribute no rows to their owner; walk for coverage.
	for _, s := range n.SubPlans {
		w.rows(s)
	}
	if out < 0 {
		out = 0
	}
	w.c.RowsPerExec[n.ID] = out
	return out
}

// loops fills Loops for n's subtree, n executing l times per run.
func (w *cardWalk) loops(n *Node, l float64) {
	w.c.Loops[n.ID] = l
	for _, ch := range n.Children {
		w.loops(ch, l)
	}
	for _, s := range n.SubPlans {
		subLoops := l
		if len(n.Children) > 0 {
			subLoops = l * math.Max(1, w.c.RowsPerExec[n.Children[0].ID])
		}
		w.loops(s, subLoops)
	}
}

// EstimateInto computes estimate cardinalities with rowsOf and stores them
// on the plan's nodes (EstRows = total estimated rows), returning the
// cardinalities.
func EstimateInto(p *Plan, rowsOf func(table string) int64) Cardinalities {
	c := Cardinality(p, rowsOf, UnitScale)
	for _, n := range p.Nodes() {
		n.EstRows = c.Total[n.ID]
	}
	return c
}

// UnitScale is the AbsRows growth ratio of an estimate: 1 for every table.
func UnitScale(string) float64 { return 1 }
