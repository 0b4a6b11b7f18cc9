package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"diads/internal/dbsys"
)

func TestQ2MatchesFigure1Shape(t *testing.T) {
	p := BuildQ2(DefaultQ2Choices())
	if got := p.NumOperators(); got != 25 {
		t.Fatalf("Figure 1 plan has 25 operators, got %d:\n%s", got, p.Render())
	}
	leaves := p.Leaves()
	if len(leaves) != 9 {
		t.Fatalf("Figure 1 plan has 9 leaf operators, got %d:\n%s", len(leaves), p.Render())
	}
	var leafIDs []int
	for _, l := range leaves {
		leafIDs = append(leafIDs, l.ID)
	}
	wantLeaves := []int{4, 8, 10, 13, 15, 19, 22, 23, 25}
	for i, want := range wantLeaves {
		if leafIDs[i] != want {
			t.Fatalf("leaf IDs: got %v, want %v\n%s", leafIDs, wantLeaves, p.Render())
		}
	}
	// O8 and O22 are the partsupp (volume V1) leaves.
	psLeaves := p.LeavesOnTable(dbsys.TPartsupp)
	if len(psLeaves) != 2 || psLeaves[0].ID != 8 || psLeaves[1].ID != 22 {
		t.Fatalf("partsupp leaves: got %v", ids(psLeaves))
	}
	// O23 is an Index Scan on supplier, the paper's worked example.
	o23 := p.MustNode(23)
	if o23.Type != OpIndexScan || o23.Table != dbsys.TSupplier {
		t.Fatalf("O23: got %s on %s", o23.Type, o23.Table)
	}
	// O4 is the part index scan.
	o4 := p.MustNode(4)
	if o4.Type != OpIndexScan || o4.Table != dbsys.TPart {
		t.Fatalf("O4: got %s on %s", o4.Type, o4.Table)
	}
	// The root is a Limit; O2 a Sort; O3 the main hash join.
	if p.MustNode(1).Type != OpLimit || p.MustNode(2).Type != OpSort || p.MustNode(3).Type != OpHashJoin {
		t.Fatalf("top operators wrong:\n%s", p.Render())
	}
	// O16 is the subplan aggregate.
	if p.MustNode(16).Type != OpAggregate {
		t.Fatalf("O16 should be the subplan Aggregate, got %s", p.MustNode(16).Type)
	}
}

func ids(ns []*Node) []int {
	var out []int
	for _, n := range ns {
		out = append(out, n.ID)
	}
	return out
}

func TestQ2AncestorChains(t *testing.T) {
	// Under V1 contention the inflating ancestors of O8 and O22 must be
	// exactly the paper's eight intermediates {O2,O3,O6,O7} and
	// {O17,O18,O20,O21} once blocking-build nodes (which record exclusive
	// time) and the root are excluded.
	p := BuildQ2(DefaultQ2Choices())
	inflating := func(leaf int) []int {
		var out []int
		for _, a := range p.Ancestors(leaf) {
			n := p.MustNode(a)
			if a == p.Root.ID || n.Type.IsBlockingBuild() {
				continue
			}
			out = append(out, a)
		}
		sort.Ints(out)
		return out
	}
	gotO8 := inflating(8)
	wantO8 := []int{2, 3, 6, 7}
	if !equalInts(gotO8, wantO8) {
		t.Fatalf("inflating ancestors of O8: got %v, want %v", gotO8, wantO8)
	}
	gotO22 := inflating(22)
	wantO22 := []int{2, 3, 17, 18, 20, 21}
	if !equalInts(gotO22, wantO22) {
		t.Fatalf("inflating ancestors of O22: got %v, want %v", gotO22, wantO22)
	}
	// Union of both chains = the paper's eight intermediates.
	union := map[int]bool{}
	for _, x := range append(gotO8, gotO22...) {
		union[x] = true
	}
	var got []int
	for x := range union {
		got = append(got, x)
	}
	sort.Ints(got)
	if !equalInts(got, []int{2, 3, 6, 7, 17, 18, 20, 21}) {
		t.Fatalf("union of inflating ancestors: %v", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPreOrderNumbering(t *testing.T) {
	p := BuildQ2(DefaultQ2Choices())
	for i, n := range p.Nodes() {
		if n.ID != i+1 {
			t.Fatalf("pre-order IDs must be dense: node %d has ID %d", i, n.ID)
		}
	}
	// Parent pointers are consistent: every non-root's parent has a
	// smaller pre-order ID.
	for _, n := range p.Nodes() {
		if n.ID == 1 {
			if p.ParentID(1) != 0 {
				t.Fatalf("root parent should be 0")
			}
			continue
		}
		if pid := p.ParentID(n.ID); pid <= 0 || pid >= n.ID {
			t.Fatalf("parent of O%d is O%d; pre-order requires parent < child", n.ID, pid)
		}
	}
}

func TestAncestorsThroughSubPlan(t *testing.T) {
	p := BuildQ2(DefaultQ2Choices())
	anc := p.Ancestors(22)
	// O22 chains through O21, O20, O18, O17, O16, then the subplan's
	// attachment point O3, then O2, O1.
	want := []int{21, 20, 18, 17, 16, 3, 2, 1}
	if !equalInts(anc, want) {
		t.Fatalf("Ancestors(22): got %v, want %v", anc, want)
	}
}

func TestSignatureStability(t *testing.T) {
	a := BuildQ2(DefaultQ2Choices())
	b := BuildQ2(DefaultQ2Choices())
	if a.Signature() != b.Signature() {
		t.Fatalf("identical plans must share a signature")
	}
	ch := DefaultQ2Choices()
	ch.PartsuppAccess = AccessSpec{Type: OpSeqScan}
	ch.SubPartsuppAccess = AccessSpec{Type: OpSeqScan}
	c := BuildQ2(ch)
	if a.Signature() == c.Signature() {
		t.Fatalf("different access paths must change the signature")
	}
}

func TestDiffReportsAccessPathChange(t *testing.T) {
	a := BuildQ2(DefaultQ2Choices())
	ch := DefaultQ2Choices()
	ch.PartsuppAccess = AccessSpec{Type: OpSeqScan}
	ch.SubPartsuppAccess = AccessSpec{Type: OpSeqScan}
	b := BuildQ2(ch)
	diffs := Diff(a, b)
	if diffs == nil {
		t.Fatalf("plans differ; Diff returned nil")
	}
	var sawPartsupp bool
	for _, d := range diffs {
		if d.Kind == "access-path" && strings.Contains(d.Detail, dbsys.TPartsupp) {
			sawPartsupp = true
		}
	}
	if !sawPartsupp {
		t.Fatalf("diff should mention the partsupp access change: %v", diffs)
	}
	if Diff(a, BuildQ2(DefaultQ2Choices())) != nil {
		t.Fatalf("identical plans should diff to nil")
	}
}

func TestDiffReportsJoinStrategyChange(t *testing.T) {
	a := BuildQ2(DefaultQ2Choices())
	ch := DefaultQ2Choices()
	ch.MainJoin = OpNestedLoop
	b := BuildQ2(ch)
	diffs := Diff(a, b)
	var sawOp bool
	for _, d := range diffs {
		if d.Kind == "operator" && (strings.Contains(d.Detail, string(OpHashJoin)) ||
			strings.Contains(d.Detail, string(OpNestedLoop))) {
			sawOp = true
		}
	}
	if !sawOp {
		t.Fatalf("diff should mention the join strategy change: %v", diffs)
	}
}

func TestRenderContainsOperatorNumbers(t *testing.T) {
	p := BuildQ2(DefaultQ2Choices())
	r := p.Render()
	for _, want := range []string{"O1 ", "O25", "SubPlan:", "Index Scan using " + dbsys.IdxPartsuppPart} {
		if !strings.Contains(r, want) {
			t.Fatalf("render missing %q:\n%s", want, r)
		}
	}
}

func TestTablesAndLeafHelpers(t *testing.T) {
	p := BuildQ2(DefaultQ2Choices())
	tables := p.Tables()
	want := []string{dbsys.TNation, dbsys.TPart, dbsys.TPartsupp, dbsys.TRegion, dbsys.TSupplier}
	if !equalStrings(tables, want) {
		t.Fatalf("Tables: got %v, want %v", tables, want)
	}
	if _, ok := p.Node(0); ok {
		t.Fatalf("Node(0) should not exist")
	}
	if _, ok := p.Node(26); ok {
		t.Fatalf("Node(26) should not exist")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOtherQueryBuilders(t *testing.T) {
	for _, tc := range []struct {
		p      *Plan
		minOps int
	}{
		{BuildQ6(), 2},
		{BuildQ14(), 5},
		{BuildQ5(), 12},
	} {
		if tc.p.NumOperators() < tc.minOps {
			t.Errorf("%s: want >= %d ops, got %d", tc.p.Query, tc.minOps, tc.p.NumOperators())
		}
		if len(tc.p.Leaves()) == 0 {
			t.Errorf("%s has no leaves", tc.p.Query)
		}
		if tc.p.Signature() == "" {
			t.Errorf("%s has empty signature", tc.p.Query)
		}
	}
}

func TestBlockingBuildClassification(t *testing.T) {
	for _, typ := range []OpType{OpHash, OpMaterialize, OpAggregate} {
		if !typ.IsBlockingBuild() {
			t.Errorf("%s should be blocking-build", typ)
		}
	}
	for _, typ := range []OpType{OpSort, OpHashJoin, OpMergeJoin, OpNestedLoop, OpLimit, OpSeqScan, OpIndexScan} {
		if typ.IsBlockingBuild() {
			t.Errorf("%s should not be blocking-build", typ)
		}
	}
}

// referenceSignature is the signature walk as it was before Signature
// memoised it, fmt and all: the memo, and the fmt-free walk behind it,
// must reproduce it byte for byte.
func referenceSignature(p *Plan) string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%d:%s:%s:%s:%s;", depth, n.Type, n.Table, n.Index, n.Alias)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
		for _, s := range n.SubPlans {
			b.WriteString("sub;")
			walk(s, depth+1)
		}
	}
	walk(p.Root, 0)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// TestPlanSignatureMemo holds the memoised Signature to a fresh reference
// walk over every plan the optimizer can choose from — each Q2 decision
// point both ways, both join strategies, and the fixed-shape queries —
// asked first by concurrent callers (run under -race), then again.
func TestPlanSignatureMemo(t *testing.T) {
	plans := []*Plan{BuildQ5(), BuildQ6(), BuildQ14()}
	def := DefaultQ2Choices()
	either := func(ix AccessSpec) []AccessSpec { return []AccessSpec{ix, {Type: OpSeqScan}} }
	for _, pa := range either(def.PartAccess) {
		for _, ma := range either(def.PartsuppAccess) {
			for _, sa := range either(def.SubPartsuppAccess) {
				for _, na := range either(def.SubNationAccess) {
					for _, su := range either(def.SubSupplierAccess) {
						for _, j := range []OpType{OpHashJoin, OpNestedLoop} {
							plans = append(plans, BuildQ2(Q2Choices{
								PartAccess: pa, PartsuppAccess: ma, SubPartsuppAccess: sa,
								SubNationAccess: na, SubSupplierAccess: su, MainJoin: j,
							}))
						}
					}
				}
			}
		}
	}
	distinct := map[string]bool{}
	for _, p := range plans {
		want := referenceSignature(p)
		distinct[want] = true
		got := make([]string, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = p.Signature()
			}()
		}
		wg.Wait()
		for i, sig := range append(got, p.Signature(), p.signature()) {
			if sig != want {
				t.Fatalf("%s plan: Signature call %d = %s, reference walk %s\n%s", p.Query, i, sig, want, p.Render())
			}
		}
	}
	if len(distinct) != len(plans) {
		t.Fatalf("%d plans produced %d distinct signatures", len(plans), len(distinct))
	}
}
