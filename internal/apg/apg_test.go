package apg

import (
	"slices"
	"strings"
	"testing"

	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/topology"
	"diads/internal/workload"
)

func buildAPG(t *testing.T) (*APG, *testbed.Testbed) {
	t.Helper()
	tb, err := testbed.NewFigure1(1)
	if err != nil {
		t.Fatal(err)
	}
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: 2},
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	p := tb.Runs[0].Plan
	g, err := Build(p, tb.Cfg, tb.Cat, testbed.ServerDB)
	if err != nil {
		t.Fatal(err)
	}
	return g, tb
}

func TestAPGVolumeMapping(t *testing.T) {
	g, _ := buildAPG(t)
	// O8 and O22 read V1; the other seven leaves read V2.
	v1 := g.LeavesOnVolume(testbed.VolV1)
	if len(v1) != 2 || v1[0] != 8 || v1[1] != 22 {
		t.Fatalf("V1 leaves: got %v, want [8 22]", v1)
	}
	v2 := g.LeavesOnVolume(testbed.VolV2)
	if len(v2) != 7 {
		t.Fatalf("V2 leaves: got %v, want 7 leaves", v2)
	}
	vols := g.Volumes()
	if len(vols) != 2 {
		t.Fatalf("plan should touch 2 volumes, got %v", vols)
	}
}

func TestO23DependencyPathMatchesPaper(t *testing.T) {
	// Section 3: the inner dependency path for Index Scan O23 includes
	// the server, HBA, FC switches, storage subsystem, pool P2, volume
	// V2, and disks 5-10; the outer path holds the disk-sharing volumes.
	g, _ := buildAPG(t)
	dp := g.DependencyPath(23)
	for _, want := range []topology.ID{
		testbed.ServerDB, "hba-db-1", "sw-edge-1", "sw-core-1",
		testbed.Subsystem, testbed.PoolP2, testbed.VolV2,
		"disk-5", "disk-6", "disk-7", "disk-8", "disk-9", "disk-10",
	} {
		if !dp.Contains(want) {
			t.Errorf("O23 inner path missing %s: %v", want, dp.Inner)
		}
	}
	if dp.Contains("disk-1") {
		t.Errorf("O23 must not depend on P1 disks")
	}
	foundV4 := false
	for _, v := range dp.Outer {
		if v == testbed.VolV4 {
			foundV4 = true
		}
	}
	if !foundV4 {
		t.Errorf("O23 outer path should include V4 (shared disks): %v", dp.Outer)
	}
}

func TestInteriorOperatorUnionsDescendantPaths(t *testing.T) {
	g, _ := buildAPG(t)
	// O3 sits above both V1 and V2 subtrees (via its subplan).
	dp := g.DependencyPath(3)
	for _, want := range []topology.ID{testbed.VolV1, testbed.VolV2, testbed.PoolP1, testbed.PoolP2} {
		if !dp.Contains(want) {
			t.Errorf("O3 path missing %s", want)
		}
	}
	// O7 covers only the V1 and V2 main-tree leaves under it (O8, O10).
	dp7 := g.DependencyPath(7)
	if !dp7.Contains(testbed.VolV1) || !dp7.Contains(testbed.VolV2) {
		t.Errorf("O7 should depend on V1 (O8) and V2 (O10)")
	}
	// O21 (sort over O22) depends on V1 only.
	dp21 := g.DependencyPath(21)
	if !dp21.Contains(testbed.VolV1) || dp21.Contains(testbed.VolV2) {
		t.Errorf("O21 should depend on V1 only: %v", dp21.Inner)
	}
	// Every interior path includes the DB pseudo-component.
	if !dp.Contains(DBComponent) {
		t.Errorf("paths should include the database instance")
	}
}

func TestAnnotationsCarryMonitoringData(t *testing.T) {
	g, tb := buildAPG(t)
	run := tb.Runs[0]
	anns := g.Annotate(tb.Store, run, 8)
	if len(anns) == 0 {
		t.Fatalf("O8 should have annotations")
	}
	var sawV1Metric bool
	for _, a := range anns {
		if a.Component == string(testbed.VolV1) && a.Metric == metrics.VolReadIO {
			sawV1Metric = true
			if len(a.Samples) == 0 {
				t.Fatalf("V1 readIO annotation empty")
			}
		}
	}
	if !sawV1Metric {
		t.Fatalf("O8 annotations missing V1 readIO; got %d annotations", len(anns))
	}
	if anns := g.Annotate(tb.Store, run, 999); anns != nil {
		t.Fatalf("unknown operator should yield nil annotations")
	}
}

func TestRenderShowsStructure(t *testing.T) {
	g, _ := buildAPG(t)
	r := g.Render()
	for _, want := range []string{
		"25 operators, 9 leaves",
		"vol-V1 (pool-P1, 4 disks)",
		"vol-V2 (pool-P2, 6 disks)",
		"SubPlan:",
		"<- operators O8, O22",
	} {
		if !strings.Contains(r, want) {
			t.Fatalf("render missing %q:\n%s", want, r)
		}
	}
}

// TestAPGBuildPathsNotAliased holds Build's one-search-per-volume to the
// per-leaf reference: every leaf's paths equal a fresh
// VolumeDependencyPath for its own volume (plus the database component),
// and no two leaves on one volume share a backing array — appending to
// one leaf's Inner or Outer never shows through another's.
func TestAPGBuildPathsNotAliased(t *testing.T) {
	g, tb := buildAPG(t)
	leaves := g.Plan.Leaves()
	want := make(map[int]topology.DependencyPath, len(leaves))
	for _, leaf := range leaves {
		dp, err := tb.Cfg.VolumeDependencyPath(testbed.ServerDB, g.VolumeOf(leaf.ID))
		if err != nil {
			t.Fatal(err)
		}
		dp.Inner = append(dp.Inner, DBComponent)
		want[leaf.ID] = dp
		if got := g.DependencyPath(leaf.ID); !slices.Equal(got.Inner, dp.Inner) || !slices.Equal(got.Outer, dp.Outer) {
			t.Fatalf("O%d: paths %v, per-leaf reference %v", leaf.ID, got, dp)
		}
	}
	shared := 0
	for _, a := range leaves {
		// Scribble over a's paths in place and past their ends.
		pa := g.DependencyPath(a.ID)
		for i := range pa.Inner {
			pa.Inner[i] = "scribbled"
		}
		for i := range pa.Outer {
			pa.Outer[i] = "scribbled"
		}
		_ = append(pa.Inner, "scribbled")
		_ = append(pa.Outer, "scribbled")
		for _, b := range leaves {
			if b.ID == a.ID {
				continue
			}
			if g.VolumeOf(b.ID) == g.VolumeOf(a.ID) {
				shared++
			}
			pb := g.DependencyPath(b.ID)
			for _, s := range [][]topology.ID{pb.Inner, pb.Outer} {
				if slices.Contains(s, "scribbled") {
					t.Fatalf("writing O%d's paths showed through O%d's: %v", a.ID, b.ID, s)
				}
			}
		}
		// Restore a for the next round.
		copy(pa.Inner, want[a.ID].Inner)
		copy(pa.Outer, want[a.ID].Outer)
	}
	if shared == 0 {
		t.Fatal("no two leaves share a volume; the aliasing check was vacuous")
	}
}
