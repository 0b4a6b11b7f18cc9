package dbsys

import (
	"math"
	"testing"
	"testing/quick"

	"diads/internal/simtime"
)

func newTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	return NewTPCHCatalog(0.1, "vol-V1", "vol-V2")
}

func TestTPCHCatalogShape(t *testing.T) {
	c := newTestCatalog(t)
	if got := len(c.Tables()); got != 8 {
		t.Fatalf("TPC-H has 8 tables, got %d", got)
	}
	ps := c.MustTable(TPartsupp)
	if ps.Rows != 80_000 {
		t.Fatalf("partsupp rows at SF 0.1: %d", ps.Rows)
	}
	if v, err := c.VolumeOf(TPartsupp); err != nil || v != "vol-V1" {
		t.Fatalf("partsupp volume: %v %v", v, err)
	}
	for _, tb := range []string{TPart, TSupplier, TNation, TRegion} {
		if v, err := c.VolumeOf(tb); err != nil || v != "vol-V2" {
			t.Fatalf("%s volume: %v %v", tb, v, err)
		}
	}
	// Small tables still occupy at least one page.
	if p := c.MustTable(TRegion).Pages(); p < 1 {
		t.Fatalf("region pages: %d", p)
	}
}

func TestIndexLookupAndDrop(t *testing.T) {
	c := newTestCatalog(t)
	ix, ok := c.IndexOn(TPartsupp, "ps_partkey")
	if !ok || ix.Name != IdxPartsuppPart {
		t.Fatalf("IndexOn(partsupp.ps_partkey): %v %v", ix, ok)
	}
	if !c.DropIndex(IdxPartsuppPart) {
		t.Fatalf("drop failed")
	}
	if _, ok := c.IndexOn(TPartsupp, "ps_partkey"); ok {
		t.Fatalf("dropped index should be invisible")
	}
	if !c.RestoreIndex(IdxPartsuppPart) {
		t.Fatalf("restore failed")
	}
	if _, ok := c.IndexOn(TPartsupp, "ps_partkey"); !ok {
		t.Fatalf("restored index should be visible")
	}
	if c.DropIndex("no_such_index") {
		t.Fatalf("dropping unknown index should report false")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	c := newTestCatalog(t)
	snap := c.Snapshot()
	before := snap.RowsOf(TPartsupp)
	if err := c.ScaleRows(TPartsupp, 2.0); err != nil {
		t.Fatal(err)
	}
	if snap.RowsOf(TPartsupp) != before {
		t.Fatalf("snapshot must not see later data-property changes")
	}
	if c.MustTable(TPartsupp).Rows != 2*before {
		t.Fatalf("actual rows should double")
	}
	for _, f := range []float64{-1, math.NaN(), 1e300} {
		if c.ScaleRows(TPartsupp, f) == nil {
			t.Fatalf("ScaleRows by %g accepted: %d rows", f, c.MustTable(TPartsupp).Rows)
		}
	}
	if c.MustTable(TPartsupp).Rows != 2*before {
		t.Fatalf("a refused ScaleRows changed the rows")
	}
	clone := snap.Clone()
	clone.Rows[TPartsupp] = 7
	if snap.RowsOf(TPartsupp) == 7 {
		t.Fatalf("Clone must be independent")
	}
}

func TestCatalogErrors(t *testing.T) {
	c := NewCatalog()
	if err := c.AddTable("t", "nope", 10, 100); err == nil {
		t.Fatalf("unknown tablespace should fail")
	}
	c.AddTablespace("ts", "vol-x", DatabaseManaged)
	if err := c.AddTable("t", "ts", 10, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex("ix", "missing", "c", 1); err == nil {
		t.Fatalf("index on unknown table should fail")
	}
	if _, err := c.VolumeOf("missing"); err == nil {
		t.Fatalf("VolumeOf unknown table should fail")
	}
	if err := c.SetRows("missing", 5); err == nil {
		t.Fatalf("SetRows unknown table should fail")
	}
}

func TestParamsDefaultsAndClone(t *testing.T) {
	p := DefaultParams()
	if p.Get(ParamRandomPageCost) != 4.0 {
		t.Fatalf("random_page_cost default: %v", p.Get(ParamRandomPageCost))
	}
	if !p.Bool(ParamEnableIndexScan) {
		t.Fatalf("enable_indexscan should default on")
	}
	cl := p.Clone()
	cl.Set(ParamRandomPageCost, 1.1)
	if p.Get(ParamRandomPageCost) != 4.0 {
		t.Fatalf("Clone must not alias")
	}
	if old := p.Set(ParamWorkMemKB, 65536); old != 4096 {
		t.Fatalf("Set should return previous value, got %v", old)
	}
}

func TestCacheModelBehaviour(t *testing.T) {
	cm := NewCacheModel(16) // partsupp at SF 0.1 is ~11MB; 16MB forces misses
	c := newTestCatalog(t)
	small := c.MustTable(TRegion)
	big := c.MustTable(TPartsupp)
	hs := cm.HitRatio(small, false)
	hb := cm.HitRatio(big, false)
	if hs <= hb {
		t.Fatalf("small table should cache better: region=%v partsupp=%v", hs, hb)
	}
	if hs < 0.9 {
		t.Fatalf("tiny table should be nearly always cached: %v", hs)
	}
	if hb > 0.9 {
		t.Fatalf("large table should mostly miss at 256MB: %v", hb)
	}
	if idx := cm.HitRatio(big, true); idx <= hb {
		t.Fatalf("index access should cache better than scans: %v vs %v", idx, hb)
	}
	if got := cm.MissRatio(big, false); math.Abs(got-(1-hb)) > 1e-12 {
		t.Fatalf("MissRatio inconsistent")
	}
	zero := NewCacheModel(0)
	if zero.HitRatio(big, false) != 0 {
		t.Fatalf("zero cache should never hit")
	}
}

func TestCacheHitRatioBounds(t *testing.T) {
	cm := NewCacheModel(512)
	f := func(rows int64, width int, indexed bool) bool {
		if rows <= 0 {
			rows = -rows + 1
		}
		if width <= 0 {
			width = -width + 1
		}
		if rows > 1<<40 || width > 1<<20 {
			return true
		}
		tb := &Table{Name: "x", Rows: rows, RowWidthB: width}
		h := cm.HitRatio(tb, indexed)
		return h >= 0 && h <= cm.MaxHit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLockManagerWaits(t *testing.T) {
	lm := NewLockManager()
	lm.AddHold(Hold{Table: TPartsupp, Iv: simtime.NewInterval(100, 200), Mode: LockExclusive, Holder: "txn-1"})
	lm.AddHold(Hold{Table: TPart, Iv: simtime.NewInterval(100, 300), Mode: LockShared, Holder: "txn-2"})

	if w := lm.WaitTime(TPartsupp, 150); w != 50 {
		t.Fatalf("reader at t=150 should wait 50s, got %v", w)
	}
	if w := lm.WaitTime(TPartsupp, 250); w != 0 {
		t.Fatalf("no wait after release, got %v", w)
	}
	if w := lm.WaitTime(TPart, 150); w != 0 {
		t.Fatalf("shared holds must not block readers, got %v", w)
	}
	if w := lm.WaitTime("other", 150); w != 0 {
		t.Fatalf("unrelated table should not wait, got %v", w)
	}
	if n := lm.HeldAt(150); n != 2 {
		t.Fatalf("HeldAt(150): %d", n)
	}
	if n := lm.HeldAt(250); n != 1 {
		t.Fatalf("HeldAt(250): %d", n)
	}
}

func TestLockManagerOverlappingExclusives(t *testing.T) {
	lm := NewLockManager()
	lm.AddHold(Hold{Table: TPartsupp, Iv: simtime.NewInterval(0, 100), Mode: LockExclusive, Holder: "a"})
	lm.AddHold(Hold{Table: TPartsupp, Iv: simtime.NewInterval(50, 300), Mode: LockExclusive, Holder: "b"})
	if w := lm.WaitTime(TPartsupp, 60); w != 240 {
		t.Fatalf("should wait for the longest conflicting hold: %v", w)
	}
	holds := lm.Holds()
	if len(holds) != 2 || holds[0].Holder != "a" {
		t.Fatalf("Holds ordering: %+v", holds)
	}
}

func TestTablePages(t *testing.T) {
	tb := &Table{Rows: 1000, RowWidthB: 100}
	// 100KB of data over 8KB pages -> 13 pages.
	if p := tb.Pages(); p != 13 {
		t.Fatalf("Pages: got %d, want 13", p)
	}
	empty := &Table{Rows: 0, RowWidthB: 100}
	if p := empty.Pages(); p != 1 {
		t.Fatalf("empty table should still have 1 page, got %d", p)
	}
}

// TestVersionsNameStates pins the versioning contract the optimizer's
// memo keys on: every mutation of a catalog or parameter set gives it a
// version no object has carried before, a refused mutation keeps the
// version, a clone starts under its own and diverges independently, and
// every stamped statistics snapshot is distinct while a hand-built one is
// unversioned.
func TestVersionsNameStates(t *testing.T) {
	c := newTestCatalog(t)
	p := DefaultParams()
	seen := map[uint64]bool{c.Version(): true, p.Version(): true}
	fresh := func(what string, v uint64) {
		t.Helper()
		if v == 0 || seen[v] {
			t.Fatalf("%s: version %d is not new", what, v)
		}
		seen[v] = true
	}
	for _, m := range []struct {
		what string
		do   func() bool
	}{
		{"AddTablespace", func() bool { c.AddTablespace("ts_x", "vol-V3", DatabaseManaged); return true }},
		{"AddTable", func() bool { return c.AddTable("x", "ts_x", 10, 100) == nil }},
		{"AddIndex", func() bool { return c.AddIndex("x_idx", "x", "k", 1) == nil }},
		{"DropIndex", func() bool { return c.DropIndex("x_idx") }},
		{"RestoreIndex", func() bool { return c.RestoreIndex("x_idx") }},
		{"SetRows", func() bool { return c.SetRows("x", 20) == nil }},
		{"ScaleRows", func() bool { return c.ScaleRows("x", 2) == nil }},
	} {
		if !m.do() {
			t.Fatalf("%s failed", m.what)
		}
		fresh(m.what, c.Version())
	}
	v := c.Version()
	if c.DropIndex("no_such_index") || c.SetRows("missing", 1) == nil || c.AddTable("y", "nope", 1, 1) == nil || c.Version() != v {
		t.Fatalf("a refused mutation moved the version %d -> %d", v, c.Version())
	}

	clone := c.Clone()
	fresh("Clone", clone.Version())
	clone.DropIndex(IdxPartsuppPart)
	fresh("clone's DropIndex", clone.Version())
	if c.Version() != v {
		t.Fatal("mutating a clone moved the original's version")
	}
	if _, ok := c.IndexOn(TPartsupp, "ps_partkey"); !ok {
		t.Fatal("a clone's drop reached the original")
	}
	if ix, _ := clone.Index("x_idx"); ix == nil || clone.MustTable("x").Rows != 40 {
		t.Fatal("the clone lost state")
	}

	p.Set(ParamWorkMemKB, 1)
	fresh("Params.Set", p.Version())
	pc := p.Clone()
	fresh("Params.Clone", pc.Version())
	pc.Set(ParamWorkMemKB, 2)
	fresh("clone's Set", pc.Version())

	s1, s2 := c.Snapshot(), c.Snapshot()
	fresh("Snapshot", s1.Version())
	fresh("second Snapshot", s2.Version())
	fresh("Stats.Clone", s1.Clone().Version())
	if (Stats{Rows: s1.Rows}).Version() != 0 {
		t.Fatal("a hand-built Stats carries a version")
	}
}
