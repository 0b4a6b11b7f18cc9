package plan

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
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
	p.sigOnce.Do(func() {
		h := p.hash()
		p.sig = string(h[:])
	})
	return p.sig
}

// HasSignature reports whether the plan's signature is sig, without
// keeping it: Module PD asks it of a scratch plan the optimizer reuses.
func (p *Plan) HasSignature(sig string) bool {
	h := p.hash()
	return string(h[:]) == sig
}

// hash hashes the tree's structure into the signature's hex digits. The
// walk writes into a stack buffer that holds a Q2 plan's structure.
func (p *Plan) hash() (h [16]byte) {
	var buf [2048]byte
	sum := sha256.Sum256(appendShape(buf[:0], p.Root, 0))
	hex.Encode(h[:], sum[:8])
	return h
}

// appendShape appends the structure of the subtree under n, at depth.
func appendShape(b []byte, n *Node, depth int) []byte {
	b = strconv.AppendInt(b, int64(depth), 10)
	for _, s := range [...]string{":", string(n.Type), ":", n.Table, ":", n.Index, ":", n.Alias, ";"} {
		b = append(b, s...)
	}
	for _, c := range n.Children {
		b = appendShape(b, c, depth+1)
	}
	for _, s := range n.SubPlans {
		b = appendShape(append(b, "sub;"...), s, depth+1)
	}
	return b
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
// structurally identical. It walks the two plans' leaves in key order,
// so it allocates only its result.
func Diff(a, b *Plan) []Difference {
	if a.Signature() == b.Signature() {
		return nil
	}
	var rows [8]Difference
	out := rows[:0]

	// Both plans' leaves, a's first, stably in key order: each run of
	// one key ends with a's last leaf on it and then b's.
	type leaf struct {
		n   *Node
		inB bool
	}
	var buf [2 * q2Nodes]leaf
	leaves := buf[:0]
	for i, p := range [2]*Plan{a, b} {
		for _, n := range p.nodes {
			if n.IsLeaf() {
				leaves = append(leaves, leaf{n, i == 1})
			}
		}
	}
	slices.SortStableFunc(leaves, func(x, y leaf) int { return compareKeys(x.n, y.n) })
	for i := 0; i < len(leaves); {
		var x, y *Node
		for j := i; i < len(leaves) && compareKeys(leaves[i].n, leaves[j].n) == 0; i++ {
			if leaves[i].inB {
				y = leaves[i].n
			} else {
				x = leaves[i].n
			}
		}
		if x != nil && y != nil && x.Type == y.Type && x.Index == y.Index {
			continue
		}
		var d [128]byte
		detail := appendAccess(append(appendAccess(append(appendKey(d[:0], cmp.Or(x, y)), ": "...), x), " -> "...), y)
		out = append(out, Difference{Kind: "access-path", Detail: string(detail)})
	}

	for _, t := range [...]OpType{OpLimit, OpSort, OpHashJoin, OpMergeJoin, OpNestedLoop,
		OpHash, OpMaterialize, OpAggregate, OpSeqScan, OpIndexScan} {
		if ca, cb := a.count(t), b.count(t); ca != cb {
			var d [64]byte
			detail := strconv.AppendInt(append(append(d[:0], t...), " count "...), int64(ca), 10)
			detail = strconv.AppendInt(append(detail, " -> "...), int64(cb), 10)
			out = append(out, Difference{Kind: "operator", Detail: string(detail)})
		}
	}
	if len(out) == 0 {
		out = append(out, Difference{Kind: "shape", Detail: "same operators arranged differently"})
	}
	return slices.Clone(out)
}

// count returns the number of the plan's operators of type t.
func (p *Plan) count(t OpType) int {
	n := 0
	for _, op := range p.nodes {
		if op.Type == t {
			n++
		}
	}
	return n
}

// compareKeys orders two leaves by their access-path keys.
func compareKeys(x, y *Node) int {
	var bx, by [64]byte
	return bytes.Compare(appendKey(bx[:0], x), appendKey(by[:0], y))
}

// appendKey appends a leaf's access-path key: its table, and its alias
// after a space.
func appendKey(b []byte, n *Node) []byte {
	b = append(b, n.Table...)
	if n.Alias != "" {
		b = append(append(b, ' '), n.Alias...)
	}
	return b
}

// appendAccess appends how a leaf reads its table, or "none" for no leaf.
func appendAccess(b []byte, n *Node) []byte {
	if n == nil {
		return append(b, "none"...)
	}
	b = append(b, n.Type...)
	if n.Index != "" {
		b = append(append(b, " using "...), n.Index...)
	}
	return b
}
