package apg_test

import (
	"slices"
	"sort"
	"testing"

	"diads/internal/apg"
	"diads/internal/dbsys"
	"diads/internal/experiments"
	"diads/internal/plan"
	"diads/internal/testbed"
	"diads/internal/topology"
)

// refAPG is the graph as Build used to derive it: a map from leaf to
// volume, and a recursive walk that gives every interior operator a fresh
// merged path through two seen-sets of its own. Build derives interior
// paths per distinct volume sequence instead; this copy shares no code
// with it, so the two must agree on every operator.
type refAPG struct {
	plan     *plan.Plan
	volumeOf map[int]topology.ID
	paths    map[int]topology.DependencyPath
}

func buildRef(t *testing.T, p *plan.Plan, cfg *topology.Config, cat *dbsys.Catalog, server topology.ID) *refAPG {
	t.Helper()
	g := &refAPG{plan: p, volumeOf: map[int]topology.ID{}, paths: map[int]topology.DependencyPath{}}
	for _, leaf := range p.Leaves() {
		vol, err := cat.VolumeOf(leaf.Table)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := cfg.VolumeDependencyPath(server, vol)
		if err != nil {
			t.Fatal(err)
		}
		dp.Inner = append(dp.Inner, apg.DBComponent)
		g.volumeOf[leaf.ID] = vol
		g.paths[leaf.ID] = dp
	}
	var walk func(n *plan.Node) topology.DependencyPath
	walk = func(n *plan.Node) topology.DependencyPath {
		if n.IsLeaf() {
			return g.paths[n.ID]
		}
		merged := topology.DependencyPath{Inner: []topology.ID{server, apg.DBComponent}}
		seenIn := map[topology.ID]bool{server: true, apg.DBComponent: true}
		seenOut := map[topology.ID]bool{}
		absorb := func(dp topology.DependencyPath) {
			for _, id := range dp.Inner {
				if !seenIn[id] {
					seenIn[id] = true
					merged.Inner = append(merged.Inner, id)
				}
			}
			for _, id := range dp.Outer {
				if !seenOut[id] {
					seenOut[id] = true
					merged.Outer = append(merged.Outer, id)
				}
			}
		}
		for _, ch := range n.Children {
			absorb(walk(ch))
		}
		for _, s := range n.SubPlans {
			absorb(walk(s))
		}
		g.paths[n.ID] = merged
		return merged
	}
	walk(p.Root)
	return g
}

func (g *refAPG) leavesOnVolume(vol topology.ID) []int {
	var out []int
	for _, leaf := range g.plan.Leaves() {
		if g.volumeOf[leaf.ID] == vol {
			out = append(out, leaf.ID)
		}
	}
	return out
}

func (g *refAPG) volumes() []topology.ID {
	seen := map[topology.ID]bool{}
	for _, v := range g.volumeOf {
		seen[v] = true
	}
	var out []topology.ID
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *refAPG) components() []topology.ID {
	seen := map[topology.ID]bool{}
	for _, dp := range g.paths {
		for _, id := range dp.Inner {
			seen[id] = true
		}
	}
	var out []topology.ID
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkAgainstRef builds the APG of every distinct plan the testbed ran
// and holds each reader to the reference.
func checkAgainstRef(t *testing.T, tb *testbed.Testbed) {
	t.Helper()
	seen := map[string]bool{}
	for _, run := range tb.Runs {
		p := run.Plan
		if seen[p.Signature()] {
			continue
		}
		seen[p.Signature()] = true
		g, err := apg.Build(p, tb.Cfg, tb.Cat, testbed.ServerDB)
		if err != nil {
			t.Fatal(err)
		}
		ref := buildRef(t, p, tb.Cfg, tb.Cat, testbed.ServerDB)
		for id := 0; id <= p.NumOperators()+1; id++ {
			got, want := g.DependencyPath(id), ref.paths[id]
			if !slices.Equal(got.Inner, want.Inner) || !slices.Equal(got.Outer, want.Outer) {
				t.Fatalf("%s O%d: paths %v, reference %v", p.Query, id, got, want)
			}
			if got, want := g.VolumeOf(id), ref.volumeOf[id]; got != want {
				t.Fatalf("%s O%d: volume %q, reference %q", p.Query, id, got, want)
			}
		}
		if got, want := g.Volumes(), ref.volumes(); !slices.Equal(got, want) {
			t.Fatalf("%s: Volumes %v, reference %v", p.Query, got, want)
		}
		if got, want := g.Components(), ref.components(); !slices.Equal(got, want) {
			t.Fatalf("%s: Components %v, reference %v", p.Query, got, want)
		}
		for _, vol := range append(tb.Cfg.All(topology.KindVolume), "no-such-volume") {
			if got, want := g.LeavesOnVolume(vol), ref.leavesOnVolume(vol); !slices.Equal(got, want) {
				t.Fatalf("%s: LeavesOnVolume(%s) %v, reference %v", p.Query, vol, got, want)
			}
		}
		if got, want := g.Tables(), p.Tables(); !slices.Equal(got, want) {
			t.Fatalf("%s: Tables %v, plan's %v", p.Query, got, want)
		}
		leaves := p.Leaves()
		if len(g.Leaves()) != len(leaves) {
			t.Fatalf("%s: %d leaves, plan has %d", p.Query, len(g.Leaves()), len(leaves))
		}
		for i, l := range g.Leaves() {
			if want := (apg.Leaf{ID: leaves[i].ID, Table: leaves[i].Table, Volume: ref.volumeOf[leaves[i].ID]}); l != want {
				t.Fatalf("%s: leaf %d is %+v, reference %+v", p.Query, i, l, want)
			}
		}
	}
}

// TestBuildMatchesLongWayReference runs the reference over the plans of
// the nine batch scenarios and of the two fault families that change the
// plan mid-schedule (both the plan before and the plan after).
func TestBuildMatchesLongWayReference(t *testing.T) {
	for id := experiments.S1SANMisconfig; id <= experiments.SRAIDRebuild; id++ {
		sc, err := experiments.Build(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sc.Title, func(t *testing.T) { checkAgainstRef(t, sc.Testbed) })
	}

	for _, name := range []string{"index-drop", "param-change"} {
		tb, f, err := experiments.InjectFaults(7, name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(f[0].Name(), func(t *testing.T) {
			if err := tb.Simulate(); err != nil {
				t.Fatal(err)
			}
			sigs := map[string]bool{}
			for _, r := range tb.Runs {
				sigs[r.Plan.Signature()] = true
			}
			if len(sigs) < 2 {
				t.Fatalf("%s did not change the plan; the check would cover one plan only", name)
			}
			checkAgainstRef(t, tb)
		})
	}
}
