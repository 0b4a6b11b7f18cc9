// Package plan represents query execution plans: operator trees with
// pre-order operator numbering (O1, O2, ...), structural signatures for
// plan-change detection (Module PD), and the builders for the TPC-H plans
// the reproduction runs — most importantly the 25-operator, 9-leaf Query 2
// plan of the paper's Figure 1.
package plan

import "fmt"

// OpType is a physical plan operator type.
type OpType string

// Operator types.
const (
	OpLimit       OpType = "Limit"
	OpSort        OpType = "Sort"
	OpHashJoin    OpType = "Hash Join"
	OpMergeJoin   OpType = "Merge Join"
	OpNestedLoop  OpType = "Nested Loop"
	OpHash        OpType = "Hash"
	OpMaterialize OpType = "Materialize"
	OpAggregate   OpType = "Aggregate"
	OpSeqScan     OpType = "Seq Scan"
	OpIndexScan   OpType = "Index Scan"
)

// IsLeaf reports whether the operator type reads base data.
func (t OpType) IsLeaf() bool { return t == OpSeqScan || t == OpIndexScan }

// IsBlockingBuild reports whether the operator records exclusive
// (own-work-only) time rather than inclusive elapsed time. Hash builds,
// materializations and aggregations appear in instrumented plans as their
// own build/aggregation cost; the wait for their inputs is attributed to
// the consuming operator. All other operators record inclusive
// start-to-stop elapsed time, as the paper's per-operator monitoring does.
func (t OpType) IsBlockingBuild() bool {
	return t == OpHash || t == OpMaterialize || t == OpAggregate
}

// Node is one operator in a plan tree.
type Node struct {
	// ID is the pre-order operator number (1-based), assigned by
	// Plan.finalize; the paper's O8 is the node with ID 8.
	ID   int
	Type OpType
	// Table and Index name the base relation and access index for leaves.
	Table string
	Index string
	// Alias distinguishes repeated uses of a table (ps2, s2, n2, r2).
	Alias string
	// Sel is, for leaves, the fraction of the table's rows produced per
	// execution. Internal nodes ignore it.
	Sel float64
	// AbsRows is, for leaves, an absolute output row count per execution
	// (used for key lookups with a known fan-out, e.g. the 4 partsupp rows
	// per part in the Q2 subplan). When set it overrides Sel, scaled by
	// any growth of the table relative to the statistics snapshot.
	AbsRows float64
	// Fanout is, for join nodes, the output rows per outer-child row.
	// Pass-through nodes use 1.
	Fanout float64
	// LimitN caps output rows for Limit nodes.
	LimitN int64
	// Loops is how many times this operator executes per query run
	// (subplan operators run once per outer row). Zero means 1.
	Loops float64
	// EstRows is the optimizer's cardinality estimate, filled when a plan
	// is costed against a statistics snapshot.
	EstRows float64

	Children []*Node
	// SubPlans are correlated subqueries attached to this operator. In
	// pre-order numbering they follow all regular descendants.
	SubPlans []*Node
}

// OpName returns the paper-style operator name, e.g. "O8".
func (n *Node) OpName() string { return fmt.Sprintf("O%d", n.ID) }

// Label renders the EXPLAIN-style description of the node.
func (n *Node) Label() string {
	switch {
	case n.Type == OpIndexScan:
		return fmt.Sprintf("%s using %s on %s%s", n.Type, n.Index, n.Table, aliasSuffix(n.Alias))
	case n.Type == OpSeqScan:
		return fmt.Sprintf("%s on %s%s", n.Type, n.Table, aliasSuffix(n.Alias))
	case n.Type == OpLimit && n.LimitN > 0:
		return fmt.Sprintf("%s (%d)", n.Type, n.LimitN)
	default:
		return string(n.Type)
	}
}

func aliasSuffix(a string) string {
	if a == "" {
		return ""
	}
	return " " + a
}

// IsLeaf reports whether the node reads base data.
func (n *Node) IsLeaf() bool { return n.Type.IsLeaf() }

// EffectiveFanout returns Fanout, defaulting to 1.
func (n *Node) EffectiveFanout() float64 {
	if n.Fanout <= 0 {
		return 1
	}
	return n.Fanout
}
