package symptoms

import (
	"strings"
	"testing"
	"unsafe"
)

// incidentFacts builds a fact base resembling a V1-contention incident.
func incidentFacts(extra ...string) *FactBase {
	fb := NewFactBase()
	fb.Add("metric-anomaly:vol-V1:writeTime", 0.95)
	fb.Add("cos-leaf-frac:vol-V1", 1.0)
	fb.Add("pool-load-increase:pool-P1", 0.9)
	for _, name := range extra {
		fb.Add(name, 0.9)
	}
	return fb
}

func backgroundFacts() *FactBase {
	fb := NewFactBase()
	// Always-on facts that carry no signal.
	fb.Add("pool-load-increase:pool-P1", 0.92)
	return fb
}

func TestMinerProposesDiscriminativeEntry(t *testing.T) {
	var m Miner
	for i := 0; i < 3; i++ {
		m.AddIncident(Incident{
			Facts:     incidentFacts(),
			CauseKind: "mystery-contention",
			Subject:   "vol-V1",
		})
	}
	m.AddBackground(backgroundFacts())

	cands := m.Propose(3)
	if len(cands) != 1 {
		t.Fatalf("want 1 candidate, got %d", len(cands))
	}
	c := cands[0]
	if c.CauseKind != "mystery-contention-mined" || c.Support != 3 {
		t.Fatalf("candidate wrong: %+v", c)
	}
	// The background-present fact must be filtered out.
	rendered := c.Render()
	if strings.Contains(rendered, "pool-load-increase") {
		t.Fatalf("background fact should be filtered:\n%s", rendered)
	}
	for _, want := range []string{"metric-anomaly:vol-V1:writeTime", "cos-leaf-frac:vol-V1"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("candidate missing %q:\n%s", want, rendered)
		}
	}
	// Weights sum to 100 and the rendered entry parses back.
	var sum float64
	for _, cond := range c.Conditions {
		sum += cond.Weight
	}
	if sum < 99.5 || sum > 100.5 {
		t.Fatalf("weights sum to %v", sum)
	}
	// Strip the comment line; the DSL parser takes the rest.
	lines := strings.SplitN(rendered, "\n", 2)
	if _, err := Parse(lines[1]); err != nil {
		t.Fatalf("mined entry does not parse: %v\n%s", err, rendered)
	}
}

func TestMinerRequiresSupport(t *testing.T) {
	var m Miner
	m.AddIncident(Incident{Facts: incidentFacts(), CauseKind: "rare-cause"})
	if cands := m.Propose(3); len(cands) != 0 {
		t.Fatalf("one incident should not support a proposal: %v", cands)
	}
}

func TestMinerRequiresConsistency(t *testing.T) {
	var m Miner
	// Incidents of the same class with disjoint facts: nothing common.
	fb1 := NewFactBase()
	fb1.Add("fact-a", 0.9)
	fb2 := NewFactBase()
	fb2.Add("fact-b", 0.9)
	fb3 := NewFactBase()
	fb3.Add("fact-c", 0.9)
	for _, fb := range []*FactBase{fb1, fb2, fb3} {
		m.AddIncident(Incident{Facts: fb, CauseKind: "inconsistent"})
	}
	if cands := m.Propose(3); len(cands) != 0 {
		t.Fatalf("disjoint incidents should yield no proposal: %v", cands)
	}
}

// TestMinerSkipsHostileFactNames pins that a fact name carrying DSL
// delimiters is data, not code: Propose must not panic (the old
// MustParseExpr path took the whole fleet coordinator down
// mid-learnStep), and the unparseable names are skipped and counted
// while the rest of the candidate survives with renormalized weights.
func TestMinerSkipsHostileFactNames(t *testing.T) {
	var m Miner
	hostile := []string{"evil)name", "trailing, 0.9) or(x"}
	for i := 0; i < 3; i++ {
		fb := NewFactBase()
		fb.Add("fact-good", 0.9)
		fb.Add("fact-also-good", 0.95)
		for _, name := range hostile {
			fb.Add(name, 0.9)
		}
		m.AddIncident(Incident{Facts: fb, CauseKind: "hostile"})
	}
	cands := m.Propose(3)
	if len(cands) != 1 {
		t.Fatalf("want 1 candidate, got %d", len(cands))
	}
	c := cands[0]
	if c.Skipped != len(hostile) {
		t.Fatalf("skipped = %d, want %d", c.Skipped, len(hostile))
	}
	if len(c.Conditions) != 2 {
		t.Fatalf("conditions = %d, want the 2 parseable facts", len(c.Conditions))
	}
	var sum float64
	for _, cond := range c.Conditions {
		sum += cond.Weight
	}
	if sum < 99.5 || sum > 100.5 {
		t.Fatalf("weights renormalize over survivors, sum = %v", sum)
	}
	if !strings.Contains(c.Render(), "2 facts skipped") {
		t.Fatalf("render should surface the skip count:\n%s", c.Render())
	}

	// All facts hostile: no candidate rather than a panic or an empty,
	// uninstallable entry.
	var m2 Miner
	for i := 0; i < 3; i++ {
		fb := NewFactBase()
		fb.Add("evil)only", 0.9)
		m2.AddIncident(Incident{Facts: fb, CauseKind: "all-hostile"})
	}
	if cands := m2.Propose(3); len(cands) != 0 {
		t.Fatalf("all-hostile class should propose nothing, got %v", cands)
	}
}

// TestCandidateRenderParseRoundTrip pins that every installable
// candidate is reloadable: CandidateEntry.Render() → Parse reconstructs
// the entry with the same kind (mined suffix intact), global scope, and
// weights summing to 100 — the contract that lets learned entries
// persist across runs as DSL text.
func TestCandidateRenderParseRoundTrip(t *testing.T) {
	var m Miner
	for i := 0; i < 3; i++ {
		fb := NewFactBase()
		fb.Add("metric-anomaly:vol-V1:writeTime", 0.95)
		fb.Add("cos-leaf-frac:vol-V1", 1.0)
		fb.Add("pool-load-increase:pool-P1", 0.9)
		m.AddIncident(Incident{Facts: fb, CauseKind: "round-trip"})
	}
	cands := m.Propose(3)
	if len(cands) != 1 {
		t.Fatalf("want 1 candidate, got %d", len(cands))
	}
	c := cands[0]

	db, err := Parse(c.Render())
	if err != nil {
		t.Fatalf("rendered candidate does not parse: %v\n%s", err, c.Render())
	}
	entries := db.Entries()
	if len(entries) != 1 {
		t.Fatalf("round trip produced %d entries, want 1", len(entries))
	}
	got, want := entries[0], c.Entry()
	if got.Kind != want.Kind || !IsMined(got.Kind) {
		t.Errorf("kind = %q, want mined %q", got.Kind, want.Kind)
	}
	if got.Scope != ScopeGlobal {
		t.Errorf("scope = %q, want global", got.Scope)
	}
	if got.Fix != want.Fix {
		t.Errorf("fix = %q, want %q", got.Fix, want.Fix)
	}
	if len(got.Conditions) != len(want.Conditions) {
		t.Fatalf("conditions = %d, want %d", len(got.Conditions), len(want.Conditions))
	}
	for i := range got.Conditions {
		if got.Conditions[i].Weight != want.Conditions[i].Weight {
			t.Errorf("condition %d weight = %v, want %v (must survive %%g formatting exactly)",
				i, got.Conditions[i].Weight, want.Conditions[i].Weight)
		}
		if got.Conditions[i].Expr.String() != want.Conditions[i].Expr.String() {
			t.Errorf("condition %d expr = %q, want %q",
				i, got.Conditions[i].Expr, want.Conditions[i].Expr)
		}
	}
}

// TestDBRenderParseRoundTrip pins the database-level persistence
// format, including the built-in entries' scopes, fixes, and every
// expression form (exists, ge, not, and, or, before).
func TestDBRenderParseRoundTrip(t *testing.T) {
	orig := Builtin()
	db, err := Parse(orig.Render())
	if err != nil {
		t.Fatalf("Builtin().Render() does not parse: %v", err)
	}
	a, b := orig.Entries(), db.Entries()
	if len(a) != len(b) {
		t.Fatalf("round trip produced %d entries, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Scope != b[i].Scope || a[i].Fix != b[i].Fix {
			t.Errorf("entry %d header drifted: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Render() != b[i].Render() {
			t.Errorf("entry %s not fixed-point under render/parse:\n%s\nvs\n%s",
				a[i].Kind, a[i].Render(), b[i].Render())
		}
	}
}

func TestMinerSeparatesClasses(t *testing.T) {
	var m Miner
	for i := 0; i < 3; i++ {
		m.AddIncident(Incident{Facts: incidentFacts(), CauseKind: "class-a"})
	}
	lockFacts := func() *FactBase {
		fb := NewFactBase()
		fb.Add("lock-anomaly:db", 0.95)
		fb.Add("cos-table:partsupp", 0.9)
		return fb
	}
	for i := 0; i < 3; i++ {
		m.AddIncident(Incident{Facts: lockFacts(), CauseKind: "class-b"})
	}
	cands := m.Propose(3)
	if len(cands) != 2 {
		t.Fatalf("want 2 candidates, got %d", len(cands))
	}
	// Deterministic order by kind.
	if cands[0].CauseKind != "class-a-mined" || cands[1].CauseKind != "class-b-mined" {
		t.Fatalf("candidate order: %v, %v", cands[0].CauseKind, cands[1].CauseKind)
	}
	if strings.Contains(cands[1].Render(), "vol-V1") {
		t.Fatalf("class-b candidate should not carry class-a facts")
	}
}

// TestMinedEntryDoesNotPinFactNames: a FactBuilder slices every fact
// name out of one string, so a mined entry whose patterns were those
// slices would keep a whole diagnosis's names alive for as long as the
// entry stays installed. Its patterns must be copies.
func TestMinedEntryDoesNotPinFactNames(t *testing.T) {
	var m Miner
	var bases []*FactBase
	for i := 0; i < 3; i++ {
		b := NewFactBuilder(2)
		b.Add(0.95, "metric-anomaly:", "vol-V1", ":writeTime")
		b.Add(1, "cos-leaf-frac:", "vol-V1")
		bases = append(bases, b.Build())
		m.AddIncident(Incident{Facts: bases[i], CauseKind: "mystery-contention"})
	}
	cands := m.Propose(3)
	if len(cands) != 1 || len(cands[0].Conditions) != 2 {
		t.Fatalf("want one candidate with two conditions, got %+v", cands)
	}
	for _, c := range cands[0].Conditions {
		ge, ok := c.Expr.(geExpr)
		if !ok || (ge.pattern != "metric-anomaly:vol-V1:writeTime" && ge.pattern != "cos-leaf-frac:vol-V1") {
			t.Fatalf("condition %s is not ge over a fact name", c.Expr)
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(ge.pattern)))
		for _, fb := range bases {
			for _, f := range fb.All() {
				lo := uintptr(unsafe.Pointer(unsafe.StringData(f.Name)))
				if p >= lo && p < lo+uintptr(len(f.Name)) {
					t.Fatalf("mined pattern %q points into an incident's fact name %q", ge.pattern, f.Name)
				}
			}
		}
	}
}
