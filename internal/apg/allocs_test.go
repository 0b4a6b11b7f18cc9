//go:build !race

package apg

import (
	"testing"

	"diads/internal/testbed"
	"diads/internal/topology"
)

// TestAPGBuildAllocs: a Build of S1's plan allocates exactly what the
// graph keeps: the graph, its leaf list, its path index, the leaves'
// path arena, its volume and table lists, and one array per distinct
// interior path. Search buffers and working lists come from the pool.
// The race detector adds allocations, so the test is built only without
// it; CI runs it in a step of its own.
func TestAPGBuildAllocs(t *testing.T) {
	g, tb := buildAPG(t)
	interior := map[*topology.ID]bool{}
	for _, n := range g.Plan.Nodes() {
		if !n.IsLeaf() {
			interior[&g.paths[n.ID-1].Inner[0]] = true
		}
	}
	want := float64(6 + len(interior))
	var err error
	got := testing.AllocsPerRun(100, func() { _, err = Build(g.Plan, tb.Cfg, tb.Cat, testbed.ServerDB) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocations per build, %d of them interior paths", got, len(interior))
	if got != want {
		t.Errorf("Build allocates %.0f times, the graph keeps %.0f allocations", got, want)
	}
}
