package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Plan is a finalized operator tree with pre-order IDs assigned. A plan
// is immutable once New returns: nothing may write a node's type, table,
// index, alias or children afterwards (cardinality estimates are
// annotations and do not enter the signature). Plans are shared by
// pointer and must not be copied by value.
type Plan struct {
	// Query names the query this plan executes (e.g. "Q2").
	Query string
	// Root is the top operator.
	Root *Node

	nodes   []*Node // pre-order
	parents []int   // by node ID: the parent's ID (0 for the root; index 0 unused)

	sigOnce sync.Once
	sig     string // Signature's memo, set under sigOnce
}

// New finalizes a tree under root into a Plan, assigning pre-order IDs.
// At each node, regular children are numbered before attached subplans,
// which matches how EXPLAIN lists subplans after the node's inputs.
func New(query string, root *Node) *Plan {
	n := treeSize(root)
	p := &Plan{nodes: make([]*Node, 0, n), parents: make([]int, 0, n+1)}
	p.finalize(query, root)
	return p
}

// finalize makes p the plan of the tree under root, numbering it into
// p's node and parent lists, whose storage it reuses.
func (p *Plan) finalize(query string, root *Node) {
	p.Query, p.Root = query, root
	p.nodes = p.nodes[:0]
	p.parents = append(p.parents[:0], 0)
	p.number(root, 0)
}

// number assigns n and its subtree their pre-order IDs.
func (p *Plan) number(n *Node, parent int) {
	p.nodes = append(p.nodes, n)
	p.parents = append(p.parents, parent)
	n.ID = len(p.nodes)
	for _, c := range n.Children {
		p.number(c, n.ID)
	}
	for _, s := range n.SubPlans {
		p.number(s, n.ID)
	}
}

// treeSize counts the operators under n, n included.
func treeSize(n *Node) int {
	size := 1
	for _, c := range n.Children {
		size += treeSize(c)
	}
	for _, s := range n.SubPlans {
		size += treeSize(s)
	}
	return size
}

// Nodes returns the operators in pre-order (O1 first).
func (p *Plan) Nodes() []*Node { return p.nodes }

// NumOperators returns the operator count.
func (p *Plan) NumOperators() int { return len(p.nodes) }

// Node returns the operator with the given ID.
func (p *Plan) Node(id int) (*Node, bool) {
	if id < 1 || id > len(p.nodes) {
		return nil, false
	}
	return p.nodes[id-1], true
}

// MustNode returns the operator with the given ID or panics.
func (p *Plan) MustNode(id int) *Node {
	n, ok := p.Node(id)
	if !ok {
		panic(fmt.Sprintf("plan: no operator O%d in %s", id, p.Query))
	}
	return n
}

// Leaves returns the base-data operators in pre-order.
func (p *Plan) Leaves() []*Node {
	var out []*Node
	for _, n := range p.nodes {
		if n.IsLeaf() {
			out = append(out, n)
		}
	}
	return out
}

// ParentID returns the parent operator's ID (0 for the root).
func (p *Plan) ParentID(id int) int {
	if id < 1 || id >= len(p.parents) {
		return 0
	}
	return p.parents[id]
}

// Ancestors returns the chain of ancestor IDs from id's parent up to the
// root, in bottom-up order. Subplan operators chain through the operator
// their subplan attaches to.
func (p *Plan) Ancestors(id int) []int {
	var out []int
	for cur := p.ParentID(id); cur != 0; cur = p.parents[cur] {
		out = append(out, cur)
	}
	return out
}

// LeavesOnTable returns the leaf operators reading the given table.
func (p *Plan) LeavesOnTable(table string) []*Node {
	var out []*Node
	for _, n := range p.Leaves() {
		if n.Table == table {
			out = append(out, n)
		}
	}
	return out
}

// Tables returns the distinct base tables the plan reads, sorted.
func (p *Plan) Tables() []string {
	seen := make(map[string]bool)
	for _, n := range p.Leaves() {
		seen[n.Table] = true
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Signature returns a stable hash of the plan's structure: operator types,
// access paths, and tree shape. Two runs used the same plan iff their
// signatures match — the test Module PD starts with. The hash is computed
// on first use and remembered: every run record, wire record, plan diff
// and cache key of a plan asks for it, and the plan cannot change.
func (p *Plan) Signature() string {
	p.sigOnce.Do(func() { p.sig = p.signature() })
	return p.sig
}

// signature walks the tree and hashes it.
func (p *Plan) signature() string {
	b := make([]byte, 0, 64*len(p.nodes))
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b = strconv.AppendInt(b, int64(depth), 10)
		for _, s := range [...]string{":", string(n.Type), ":", n.Table, ":", n.Index, ":", n.Alias, ";"} {
			b = append(b, s...)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
		for _, s := range n.SubPlans {
			b = append(b, "sub;"...)
			walk(s, depth+1)
		}
	}
	walk(p.Root, 0)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Render returns an EXPLAIN-style indented listing with operator numbers.
func (p *Plan) Render() string {
	var b strings.Builder
	var walk func(n *Node, depth int, prefix string)
	walk = func(n *Node, depth int, prefix string) {
		fmt.Fprintf(&b, "%-4s %s%s%s\n", n.OpName(), strings.Repeat("  ", depth), prefix, n.Label())
		for _, c := range n.Children {
			walk(c, depth+1, "")
		}
		for _, s := range n.SubPlans {
			walk(s, depth+1, "SubPlan: ")
		}
	}
	walk(p.Root, 0, "")
	return b.String()
}

// Difference describes one structural difference between two plans.
type Difference struct {
	// Kind is "access-path", "operator", or "shape".
	Kind string
	// Detail is a human-readable description.
	Detail string
}

// String implements fmt.Stringer.
func (d Difference) String() string { return d.Kind + ": " + d.Detail }

// Diff compares two plans structurally: per-table access paths and the
// multiset of operator types. It returns nil when the plans are
// structurally identical.
func Diff(a, b *Plan) []Difference {
	if a.Signature() == b.Signature() {
		return nil
	}
	var out []Difference

	accessOf := func(p *Plan) map[string]string {
		m := make(map[string]string)
		for _, n := range p.Leaves() {
			key := n.Table + aliasSuffix(n.Alias)
			desc := string(n.Type)
			if n.Index != "" {
				desc += " using " + n.Index
			}
			m[key] = desc
		}
		return m
	}
	accA, accB := accessOf(a), accessOf(b)
	keys := make(map[string]bool)
	for k := range accA {
		keys[k] = true
	}
	for k := range accB {
		keys[k] = true
	}
	sortedKeys := make([]string, 0, len(keys))
	for k := range keys {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Strings(sortedKeys)
	for _, k := range sortedKeys {
		va, vb := accA[k], accB[k]
		switch {
		case va == vb:
		case va == "":
			out = append(out, Difference{Kind: "access-path", Detail: fmt.Sprintf("%s: none -> %s", k, vb)})
		case vb == "":
			out = append(out, Difference{Kind: "access-path", Detail: fmt.Sprintf("%s: %s -> none", k, va)})
		default:
			out = append(out, Difference{Kind: "access-path", Detail: fmt.Sprintf("%s: %s -> %s", k, va, vb)})
		}
	}

	countTypes := func(p *Plan) map[OpType]int {
		m := make(map[OpType]int)
		for _, n := range p.Nodes() {
			m[n.Type]++
		}
		return m
	}
	ca, cb := countTypes(a), countTypes(b)
	for _, t := range []OpType{OpLimit, OpSort, OpHashJoin, OpMergeJoin, OpNestedLoop,
		OpHash, OpMaterialize, OpAggregate, OpSeqScan, OpIndexScan} {
		if ca[t] != cb[t] {
			out = append(out, Difference{Kind: "operator",
				Detail: fmt.Sprintf("%s count %d -> %d", t, ca[t], cb[t])})
		}
	}
	if len(out) == 0 {
		out = append(out, Difference{Kind: "shape", Detail: "same operators arranged differently"})
	}
	return out
}
