package plan

import "diads/internal/dbsys"

// AccessSpec selects how a leaf reads its table.
type AccessSpec struct {
	Type  OpType // OpIndexScan or OpSeqScan
	Index string // index name when Type is OpIndexScan
}

// Q2Choices are the optimizer decision points for the TPC-H Q2 plan. The
// zero value is invalid; use DefaultQ2Choices for the paper's Figure 1
// plan.
type Q2Choices struct {
	// PartAccess drives O4.
	PartAccess AccessSpec
	// PartsuppAccess drives the main-tree partsupp read (O8 in the
	// default shape).
	PartsuppAccess AccessSpec
	// SubPartsuppAccess drives the subplan partsupp read (O22).
	SubPartsuppAccess AccessSpec
	// SubNationAccess drives the subplan nation lookup (O19).
	SubNationAccess AccessSpec
	// SubSupplierAccess drives the subplan supplier lookup (O23).
	SubSupplierAccess AccessSpec
	// MainJoin is the strategy for the top part-to-partsupp join (O3):
	// OpHashJoin or OpNestedLoop.
	MainJoin OpType
}

// DefaultQ2Choices returns the access and join choices that produce the
// paper's 25-operator, 9-leaf plan.
func DefaultQ2Choices() Q2Choices {
	return Q2Choices{
		PartAccess:        AccessSpec{Type: OpIndexScan, Index: dbsys.IdxPartType},
		PartsuppAccess:    AccessSpec{Type: OpIndexScan, Index: dbsys.IdxPartsuppPart},
		SubPartsuppAccess: AccessSpec{Type: OpIndexScan, Index: dbsys.IdxPartsuppPart},
		SubNationAccess:   AccessSpec{Type: OpIndexScan, Index: dbsys.IdxNationKey},
		SubSupplierAccess: AccessSpec{Type: OpIndexScan, Index: dbsys.IdxSupplierKey},
		MainJoin:          OpHashJoin,
	}
}

// Selectivities and fanouts for Q2, expressed scale-independently. The
// absolute row counts they imply at scale factor 1 are noted inline.
const (
	q2PartSel      = 0.004 // 800 parts match the size+type predicate at SF 1
	q2PartsuppSel  = 0.004 // their 3,200 partsupp rows
	q2RegionSel    = 0.2   // 1 of 5 regions
	q2SupplierFrac = 0.2   // suppliers surviving the region filter
	q2SubFanout    = 4     // partsupp rows per part (subplan, per loop)
)

// BuildQ2 constructs the TPC-H Q2 plan for the given choices. With
// DefaultQ2Choices the resulting tree reproduces Figure 1 exactly:
// operators O1..O25 with leaves {O4, O8, O10, O13, O15, O19, O22, O23,
// O25}, where O8 and O22 read partsupp (volume V1) and the other seven
// leaves read V2 tables.
//
// The nodes and child lists are carved from two arrays of exactly their
// size, counted by describing the tree once to an arena with no storage.
func BuildQ2(ch Q2Choices) *Plan {
	var count arena
	q2Tree(ch, &count)
	a := arena{nodes: make([]Node, count.used), lists: make([]*Node, count.listed)}
	return New("Q2", q2Tree(ch, &a))
}

// Q2Scratch builds Q2 plans in storage it reuses from one build to the
// next, for an optimizer pricing candidates it will mostly discard. A
// plan it returns is the same tree BuildQ2 returns for the choices, and
// is valid only until the next Build: it must not be retained.
type Q2Scratch struct {
	nodes   [q2Nodes]Node
	lists   [q2Nodes]*Node
	order   [q2Nodes]*Node
	parents [q2Nodes + 1]int
	plan    Plan
}

// Build returns the Q2 plan for the choices, in the scratch's storage.
func (s *Q2Scratch) Build(ch Q2Choices) *Plan {
	a := arena{nodes: s.nodes[:], lists: s.lists[:]}
	s.plan = Plan{nodes: s.order[:0], parents: s.parents[:0]}
	s.plan.finalize("Q2", q2Tree(ch, &a))
	return &s.plan
}

// q2Nodes bounds the operators of any Q2 shape (25 by default, 26 with a
// sequential scan under the main merge join).
const q2Nodes = 32

// arena hands out a tree's nodes and child lists from storage sized for
// the tree. An arena with no storage only counts them, handing out nil.
type arena struct {
	nodes        []Node
	lists        []*Node
	used, listed int
}

// node returns a node holding n.
func (a *arena) node(n Node) *Node {
	a.used++
	if a.nodes == nil {
		return nil
	}
	p := &a.nodes[a.used-1]
	*p = n
	return p
}

// list returns a child list holding ns.
func (a *arena) list(ns ...*Node) []*Node {
	a.listed += len(ns)
	if a.lists == nil {
		return nil
	}
	l := a.lists[a.listed-len(ns) : a.listed : a.listed]
	copy(l, ns)
	return l
}

// q2Tree builds the Q2 operator tree for the choices out of a: the one
// description of Q2's shape, for BuildQ2 and Q2Scratch alike.
func q2Tree(ch Q2Choices, a *arena) *Node {
	partsuppMain := leafFor(a, ch.PartsuppAccess, dbsys.TPartsupp, "", q2PartsuppSel, 0)
	// A merge join needs its outer input ordered: an index scan delivers
	// order, a seq scan needs an explicit sort.
	var mergeOuter *Node
	if ch.PartsuppAccess.Type == OpIndexScan {
		mergeOuter = partsuppMain
	} else {
		mergeOuter = a.node(Node{Type: OpSort, Children: a.list(partsuppMain)})
	}

	mainInner := a.node(Node{ // supplier-nation-region side of O6
		Type: OpHash,
		Children: a.list(a.node(Node{
			Type:   OpHashJoin,
			Fanout: 1,
			Children: a.list(
				a.node(Node{Type: OpSeqScan, Table: dbsys.TNation, Sel: 1}),
				a.node(Node{Type: OpHash, Children: a.list(
					a.node(Node{Type: OpSeqScan, Table: dbsys.TRegion, Sel: q2RegionSel}),
				)}),
			),
		})),
	})

	joinSupp := a.node(Node{ // O7: partsupp x supplier
		Type:   OpMergeJoin,
		Fanout: 1,
		Children: a.list(
			mergeOuter,
			a.node(Node{Type: OpSort, Children: a.list(
				a.node(Node{Type: OpSeqScan, Table: dbsys.TSupplier, Sel: 1}),
			)}),
		),
	})

	joinRegion := a.node(Node{ // O6: (partsupp x supplier) x (nation x region)
		Type:     OpHashJoin,
		Fanout:   q2SupplierFrac,
		Children: a.list(joinSupp, mainInner),
	})

	subPartsupp := leafFor(a, ch.SubPartsuppAccess, dbsys.TPartsupp, "ps2", 0, q2SubFanout)
	// O21: the partsupp index delivers partkey order, but the merge join
	// with supplier needs suppkey order, so a sort is always required.
	subMergeOuter := a.node(Node{Type: OpSort, Children: a.list(subPartsupp)})

	subplan := a.node(Node{ // O16: min(ps_supplycost) for the current part
		Type: OpAggregate,
		Children: a.list(a.node(Node{
			Type:   OpNestedLoop, // O17: x region (materialized)
			Fanout: q2RegionSel,
			Children: a.list(
				a.node(Node{
					Type:   OpNestedLoop, // O18: x nation
					Fanout: 1,
					Children: a.list(
						subNation(a, ch.SubNationAccess),
						a.node(Node{
							Type:   OpMergeJoin, // O20: ps2 x s2
							Fanout: 1,
							Children: a.list(
								subMergeOuter, // O21: Sort over O22
								subSupplier(a, ch.SubSupplierAccess),
							),
						}),
					),
				}),
				a.node(Node{Type: OpMaterialize, Children: a.list( // O24
					a.node(Node{Type: OpSeqScan, Table: dbsys.TRegion, Alias: "r2", Sel: 1}),
				)}),
			),
		})),
	})

	part := leafFor(a, ch.PartAccess, dbsys.TPart, "", q2PartSel, 0)

	var mainJoin *Node
	if ch.MainJoin == OpNestedLoop {
		mainJoin = a.node(Node{
			Type:     OpNestedLoop,
			Fanout:   1,
			Children: a.list(part, joinRegion),
			SubPlans: a.list(subplan),
		})
	} else {
		mainJoin = a.node(Node{ // O3
			Type:   OpHashJoin,
			Fanout: 1,
			Children: a.list(
				part, // O4
				a.node(Node{Type: OpHash, Children: a.list(joinRegion)}), // O5
			),
			SubPlans: a.list(subplan),
		})
	}

	return a.node(Node{
		Type:   OpLimit,
		LimitN: 100,
		Children: a.list(a.node(Node{
			Type:     OpSort,
			Children: a.list(mainJoin),
		})),
	})
}

// leafFor builds a scan node from an access spec. Exactly one of sel or
// absRows should be non-zero.
func leafFor(a *arena, spec AccessSpec, table, alias string, sel, absRows float64) *Node {
	n := Node{Type: spec.Type, Table: table, Alias: alias, Sel: sel, AbsRows: absRows}
	if spec.Type == OpIndexScan {
		n.Index = spec.Index
	}
	return a.node(n)
}

// subNation builds the subplan's per-loop nation lookup (O19 by default).
func subNation(a *arena, spec AccessSpec) *Node {
	return leafFor(a, spec, dbsys.TNation, "n2", 0, 25)
}

// subSupplier builds the subplan's per-loop supplier lookup (O23 by
// default).
func subSupplier(a *arena, spec AccessSpec) *Node {
	return leafFor(a, spec, dbsys.TSupplier, "s2", 0, q2SubFanout)
}
