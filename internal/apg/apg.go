// Package apg implements the paper's central abstraction: the Annotated
// Plan Graph. An APG ties together the execution path of a query in the
// database and the SAN — every plan operator is mapped through its
// tablespace to the SAN volume it reads, and from there through the fabric
// to pools and physical disks, yielding per-operator inner and outer
// dependency paths (Section 3). Components are annotated with the
// monitoring data collected during the plan's execution.
package apg

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"diads/internal/dbsys"
	"diads/internal/exec"
	"diads/internal/metrics"
	"diads/internal/plan"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// DBComponent is the pseudo-component carrying database-level metrics in
// dependency paths (buffer cache, lock manager).
const DBComponent = "db-RepDB"

// APG is the annotated plan graph for one query plan in one environment.
type APG struct {
	Plan   *plan.Plan
	Cfg    *topology.Config
	Server topology.ID

	// volumeOf maps a leaf operator ID to the SAN volume it reads.
	volumeOf map[int]topology.ID
	// paths maps operator IDs to dependency paths. Leaves carry their
	// volume's path; interior operators the union of their descendants'.
	paths map[int]topology.DependencyPath
}

// Build constructs the APG: it resolves every leaf operator's table
// through the catalog's tablespace mapping to a SAN volume (Section
// 3.1.2) and computes inner and outer dependency paths from the SAN
// configuration (Section 3.1.1).
func Build(p *plan.Plan, cfg *topology.Config, cat *dbsys.Catalog, server topology.ID) (*APG, error) {
	g := &APG{
		Plan:     p,
		Cfg:      cfg,
		Server:   server,
		volumeOf: make(map[int]topology.ID),
		paths:    make(map[int]topology.DependencyPath),
	}
	// The fabric search depends only on (server, volume): run it once per
	// distinct volume and give each leaf its own copy of the result, so
	// no two operators' paths share a backing array.
	byVolume := make(map[topology.ID]topology.DependencyPath)
	for _, leaf := range p.Leaves() {
		vol, err := cat.VolumeOf(leaf.Table)
		if err != nil {
			return nil, fmt.Errorf("apg: leaf O%d: %w", leaf.ID, err)
		}
		g.volumeOf[leaf.ID] = vol
		dp, ok := byVolume[vol]
		if !ok {
			dp, err = cfg.VolumeDependencyPath(server, vol)
			if err != nil {
				return nil, fmt.Errorf("apg: leaf O%d on %s: %w", leaf.ID, vol, err)
			}
			dp.Inner = append(dp.Inner, DBComponent)
			byVolume[vol] = dp
		}
		g.paths[leaf.ID] = topology.DependencyPath{
			Inner: slices.Clone(dp.Inner),
			Outer: slices.Clone(dp.Outer),
		}
	}
	// Interior operators depend on everything their descendants depend
	// on, plus the server and database instance.
	var walk func(n *plan.Node) topology.DependencyPath
	walk = func(n *plan.Node) topology.DependencyPath {
		if n.IsLeaf() {
			return g.paths[n.ID]
		}
		merged := topology.DependencyPath{
			Inner: []topology.ID{server, DBComponent},
		}
		seenIn := map[topology.ID]bool{server: true, DBComponent: true}
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
	return g, nil
}

// VolumeOf returns the SAN volume a leaf operator reads ("" for interior
// operators).
func (g *APG) VolumeOf(opID int) topology.ID { return g.volumeOf[opID] }

// DependencyPath returns the operator's inner and outer dependency paths.
func (g *APG) DependencyPath(opID int) topology.DependencyPath { return g.paths[opID] }

// LeavesOnVolume returns the leaf operator IDs reading the given volume,
// in plan order.
func (g *APG) LeavesOnVolume(vol topology.ID) []int {
	var out []int
	for _, leaf := range g.Plan.Leaves() {
		if g.volumeOf[leaf.ID] == vol {
			out = append(out, leaf.ID)
		}
	}
	return out
}

// Volumes returns the distinct volumes the plan touches, sorted.
func (g *APG) Volumes() []topology.ID {
	seen := map[topology.ID]bool{}
	for _, v := range g.volumeOf {
		seen[v] = true
	}
	out := make([]topology.ID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Components returns every SAN component appearing on any operator's
// inner dependency path, sorted and de-duplicated.
func (g *APG) Components() []topology.ID {
	seen := map[topology.ID]bool{}
	for _, dp := range g.paths {
		for _, id := range dp.Inner {
			seen[id] = true
		}
	}
	out := make([]topology.ID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Annotation is the monitoring data attached to one APG component for one
// operator's execution window.
type Annotation struct {
	Component string
	Metric    metrics.Metric
	Samples   []metrics.Sample
}

// Annotate returns the annotations for an operator during one run: every
// metric series of every component on the operator's inner dependency
// path, restricted to the operator's evidence window (metrics.ReadWindow
// — the [start, stop] span padded by the monitoring interval, so coarse
// series contribute their nearest samples).
func (g *APG) Annotate(store *metrics.Store, run *exec.RunRecord, opID int) []Annotation {
	op := run.Op(opID)
	if op == nil {
		return nil
	}
	win := metrics.ReadWindow(simtime.NewInterval(op.Start, op.Stop))
	var out []Annotation
	for _, comp := range g.paths[opID].Inner {
		c := string(comp)
		for _, m := range store.MetricsFor(c) {
			samples := store.Window(c, m, win)
			if len(samples) == 0 {
				continue
			}
			out = append(out, Annotation{Component: c, Metric: m, Samples: samples})
		}
	}
	return out
}

// Render returns a text rendering of the APG: the plan tree with each
// leaf's volume mapping, followed by the SAN-side structure.
func (g *APG) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Annotated Plan Graph — query %s on %s\n", g.Plan.Query, g.Server)
	fmt.Fprintf(&b, "%d operators, %d leaves\n\n", g.Plan.NumOperators(), len(g.Plan.Leaves()))
	var walk func(n *plan.Node, depth int, prefix string)
	walk = func(n *plan.Node, depth int, prefix string) {
		suffix := ""
		if n.IsLeaf() {
			vol := g.volumeOf[n.ID]
			pool := g.Cfg.PoolOf(vol)
			disks := g.Cfg.DisksOf(vol)
			suffix = fmt.Sprintf("  -> %s (%s, %d disks)", vol, pool, len(disks))
		}
		fmt.Fprintf(&b, "%-4s %s%s%s%s\n", n.OpName(), strings.Repeat("  ", depth), prefix, n.Label(), suffix)
		for _, c := range n.Children {
			walk(c, depth+1, "")
		}
		for _, s := range n.SubPlans {
			walk(s, depth+1, "SubPlan: ")
		}
	}
	walk(g.Plan.Root, 0, "")

	b.WriteString("\nSAN layer:\n")
	for _, ss := range g.Cfg.All(topology.KindSubsystem) {
		fmt.Fprintf(&b, "  %s\n", g.Cfg.MustGet(ss))
		for _, pool := range g.Cfg.ChildrenOfKind(ss, topology.KindPool) {
			disks := g.Cfg.ChildrenOfKind(pool, topology.KindDisk)
			fmt.Fprintf(&b, "    %s (%d disks: %s..%s)\n", g.Cfg.MustGet(pool).Name,
				len(disks), disks[0], disks[len(disks)-1])
			for _, vol := range g.Cfg.VolumesInPool(pool) {
				fmt.Fprintf(&b, "      %s", g.Cfg.MustGet(vol).Name)
				if leaves := g.LeavesOnVolume(vol); len(leaves) > 0 {
					ops := make([]string, len(leaves))
					for i, id := range leaves {
						ops[i] = fmt.Sprintf("O%d", id)
					}
					fmt.Fprintf(&b, "  <- operators %s", strings.Join(ops, ", "))
				}
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}
