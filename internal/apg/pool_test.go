package apg_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"diads/internal/apg"
	"diads/internal/experiments"
	"diads/internal/plan"
	"diads/internal/testbed"
	"diads/internal/topology"
)

// buildCase is one APG to build: a plan and the testbed it ran on.
type buildCase struct {
	name string
	tb   *testbed.Testbed
	p    *plan.Plan
}

// buildCases returns the first and last plan of each of the nine batch
// scenarios at seed seed.
func buildCases(t *testing.T, seed int64) []buildCase {
	t.Helper()
	var out []buildCase
	for id := experiments.S1SANMisconfig; id <= experiments.SRAIDRebuild; id++ {
		sc, err := experiments.Build(id, seed)
		if err != nil {
			t.Fatal(err)
		}
		runs := sc.Testbed.Runs
		name := fmt.Sprintf("S%d seed %d", id, seed)
		out = append(out, buildCase{name + " first plan", sc.Testbed, runs[0].Plan},
			buildCase{name + " last plan", sc.Testbed, runs[len(runs)-1].Plan})
	}
	return out
}

// build builds the case's graph. It reports a failure with t.Error, so
// the concurrent test's workers may call it.
func (c buildCase) build(t testing.TB) *apg.APG {
	g, err := apg.Build(c.p, c.tb.Cfg, c.tb.Cat, testbed.ServerDB)
	if err != nil {
		t.Error(err)
	}
	return g
}

// snapshot renders everything a graph exposes, in fresh memory.
func snapshot(g *apg.APG) string {
	var b strings.Builder
	fmt.Fprintln(&b, g.Leaves(), g.Volumes(), g.Tables())
	for id := 1; id <= g.Plan.NumOperators(); id++ {
		fmt.Fprintln(&b, id, g.DependencyPath(id))
	}
	return b.String()
}

// TestBuildKeepsNoPooledMemory: Build's scratch is recycled, so a graph
// A must read the same after a graph B of another scenario is built, and
// a fresh build of A must deep-equal it: no path A keeps may alias a
// buffer B's Build reuses, and nothing of B's may leak into A's. Every
// ordered pair of the nine scenarios' plans at seed 1 is tried, and of
// those and S1's plan on a SAN with one more volume in each pool, whose
// paths differ from the scenarios' in every buffer.
func TestBuildKeepsNoPooledMemory(t *testing.T) {
	cases := buildCases(t, 1)
	tb, err := testbed.NewFigure1(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []topology.ID{testbed.PoolP1, testbed.PoolP2} {
		if err := tb.Cfg.AddVolume("vol-0-"+pool, pool, "extra", 10); err != nil {
			t.Fatal(err)
		}
	}
	cases = append(cases, buildCase{"S1's plan, one more volume a pool", tb, cases[0].p})
	for _, a := range cases {
		for _, b := range cases {
			if a.tb == b.tb {
				continue
			}
			ga := a.build(t)
			before := snapshot(ga)
			b.build(t)
			if snapshot(ga) != before {
				t.Fatalf("%s: the graph changed when %s's was built after it", a.name, b.name)
			}
			if fresh := a.build(t); !reflect.DeepEqual(ga, fresh) {
				t.Fatalf("%s: built after %s, the graph differs from its first build", a.name, b.name)
			}
		}
	}
}

// TestConcurrentBuildsMatchSerial: builds from several goroutines at
// once, each taking its own scratch from the pool, equal serial ones.
func TestConcurrentBuildsMatchSerial(t *testing.T) {
	cases := append(buildCases(t, 1), buildCases(t, 42)...)
	want := make([]*apg.APG, len(cases))
	for i, c := range cases {
		want[i] = c.build(t)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range cases {
					c := cases[(i+w)%len(cases)]
					if g := c.build(t); !reflect.DeepEqual(g, want[(i+w)%len(cases)]) {
						t.Errorf("worker %d: case %d differs from its serial build", w, (i+w)%len(cases))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
