// Package apg implements the paper's central abstraction: the Annotated
// Plan Graph. An APG ties together the execution path of a query in the
// database and the SAN — every plan operator is mapped through its
// tablespace to the SAN volume it reads, and from there through the fabric
// to pools and physical disks, yielding per-operator inner and outer
// dependency paths (Section 3). Components are annotated with the
// monitoring data collected during the plan's execution.
package apg

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

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
// It is immutable once Build returns: the diagnosis service shares built
// graphs between its workers.
type APG struct {
	Plan   *plan.Plan
	Cfg    *topology.Config
	Server topology.ID

	// leaves lists the plan's base-data operators in plan order.
	leaves []Leaf
	// volumes and tables hold the distinct volumes and tables the leaves
	// read, sorted.
	volumes []topology.ID
	tables  []string
	// paths holds each operator's dependency paths, indexed by ID-1. Each
	// leaf owns its paths; interior operators whose leaves read the same
	// volumes in the same first-seen order share theirs.
	paths []topology.DependencyPath
}

// Leaf is a base-data operator, the table it reads, and the SAN volume
// that table lives on.
type Leaf struct {
	ID     int
	Table  string
	Volume topology.ID
}

// Build constructs the APG: it resolves every leaf operator's table
// through the catalog's tablespace mapping to a SAN volume (Section
// 3.1.2) and computes inner and outer dependency paths from the SAN
// configuration (Section 3.1.1).
//
// The fabric search depends only on (server, volume), so it runs once per
// distinct volume. An interior operator depends on the server, the
// database instance and everything its descendants depend on: its paths
// are the de-duplicated concatenation of its leaves' volume paths in
// depth-first order, and since a repeated volume adds nothing, they are
// a function of the sequence of distinct volumes under it. Build derives
// them once per such sequence. Its search buffers and working lists come
// from a pool, so it allocates only memory the graph keeps.
func Build(p *plan.Plan, cfg *topology.Config, cat *dbsys.Catalog, server topology.ID) (*APG, error) {
	nLeaves := 0
	for _, n := range p.Nodes() {
		if n.IsLeaf() {
			nLeaves++
		}
	}
	g := &APG{
		Plan:   p,
		Cfg:    cfg,
		Server: server,
		leaves: make([]Leaf, 0, nLeaves),
		paths:  make([]topology.DependencyPath, p.NumOperators()),
	}
	b := builders.Get().(*builder)
	defer b.release()
	b.g = g
	b.finder.Reset(cfg, server)
	size := 0 // the leaves' paths, in IDs
	for _, n := range p.Nodes() {
		if !n.IsLeaf() {
			continue
		}
		vol, err := cat.VolumeOf(n.Table)
		if err != nil {
			return nil, fmt.Errorf("apg: leaf O%d: %w", n.ID, err)
		}
		v := slices.Index(b.vols, vol)
		if v < 0 {
			var dp topology.DependencyPath
			b.ids, dp, err = b.finder.AppendVolumeDependencyPath(b.ids, vol)
			if err != nil {
				return nil, fmt.Errorf("apg: leaf O%d on %s: %w", n.ID, vol, err)
			}
			v = len(b.vols)
			b.vols = append(b.vols, vol)
			b.volPaths = append(b.volPaths, dp)
		}
		g.leaves = append(g.leaves, Leaf{ID: n.ID, Table: n.Table, Volume: vol})
		size += len(b.volPaths[v].Inner) + 1 + len(b.volPaths[v].Outer)
	}

	// Each leaf gets its own copy of its volume's paths, plus the database
	// component, carved from one array with capacities clipped, so no
	// write or append through one leaf's paths reaches another's.
	arena := make([]topology.ID, 0, size)
	for _, leaf := range g.leaves {
		dp := b.volPaths[slices.Index(b.vols, leaf.Volume)]
		from := len(arena)
		arena = append(append(arena, dp.Inner...), DBComponent)
		own := topology.DependencyPath{Inner: arena[from:len(arena):len(arena)]}
		if len(dp.Outer) > 0 {
			from = len(arena)
			arena = append(arena, dp.Outer...)
			own.Outer = arena[from:len(arena):len(arena)]
		}
		g.paths[leaf.ID-1] = own
	}
	b.walk(p.Root)

	g.volumes = slices.Clone(b.vols)
	slices.Sort(g.volumes)
	tables := make([]string, len(g.leaves))
	for i, leaf := range g.leaves {
		tables[i] = leaf.Table
	}
	slices.Sort(tables)
	g.tables = slices.Clip(slices.Compact(tables))
	return g, nil
}

// builder holds Build's working state. Builders are recycled through
// builders; the graph keeps none of their memory. volPaths and the
// memo's sequences are slices of ids and seqs, which stay valid as those
// grow: append copies them, and never writes the old array again.
type builder struct {
	g        *APG
	finder   topology.PathFinder
	vols     []topology.ID             // distinct volumes, first-seen plan order
	volPaths []topology.DependencyPath // each volume's paths, by index in vols
	ids      []topology.ID             // the volumes' paths, back to back
	seq      []int                     // walk's stack of volume indexes
	memo     []sequencePath            // interior paths derived so far
	seqs     []int                     // the memo's sequences, back to back
}

var builders = sync.Pool{New: func() any { return new(builder) }}

// release empties b, drops its references into the graph and to the
// configuration, and returns it to builders.
func (b *builder) release() {
	clear(b.memo)
	b.g, b.vols, b.volPaths, b.ids = nil, b.vols[:0], b.volPaths[:0], b.ids[:0]
	b.seq, b.memo, b.seqs = b.seq[:0], b.memo[:0], b.seqs[:0]
	b.finder.Reset(nil, "")
	builders.Put(b)
}

// sequencePath is the paths of the interior operators whose leaves read
// the distinct volumes seq (indexes into builder.vols), in that order.
type sequencePath struct {
	seq []int
	dp  topology.DependencyPath
}

// walk pushes onto b.seq the distinct volumes n's leaves read, in
// depth-first first-seen order, and sets the paths of every interior
// operator under n.
func (b *builder) walk(n *plan.Node) {
	if n.IsLeaf() {
		b.seq = append(b.seq, slices.Index(b.vols, b.g.VolumeOf(n.ID)))
		return
	}
	base := len(b.seq)
	for _, ch := range n.Children {
		b.absorb(base, ch)
	}
	for _, s := range n.SubPlans {
		b.absorb(base, s)
	}
	b.g.paths[n.ID-1] = b.interiorPath(b.seq[base:])
}

// absorb walks one input of an interior operator whose volumes start at
// b.seq[base], keeping only the volumes that are new to it.
func (b *builder) absorb(base int, n *plan.Node) {
	from := len(b.seq)
	b.walk(n)
	kept := from
	for _, v := range b.seq[from:] {
		if !slices.Contains(b.seq[base:from], v) {
			b.seq[kept] = v
			kept++
		}
	}
	b.seq = b.seq[:kept]
}

// interiorPath returns the paths of an interior operator whose leaves
// read the distinct volumes seq in that order: the server and database
// instance, then each volume's inner path, skipping components already
// listed; the outer path likewise. Both are carved from one array.
func (b *builder) interiorPath(seq []int) topology.DependencyPath {
	for _, m := range b.memo {
		if slices.Equal(m.seq, seq) {
			return m.dp
		}
	}
	size := 2
	for _, v := range seq {
		size += len(b.volPaths[v].Inner) + len(b.volPaths[v].Outer)
	}
	inner := append(make([]topology.ID, 0, size), b.g.Server, DBComponent)
	for _, v := range seq {
		for _, id := range b.volPaths[v].Inner {
			if !slices.Contains(inner, id) {
				inner = append(inner, id)
			}
		}
	}
	outer := inner[len(inner):len(inner)]
	for _, v := range seq {
		for _, id := range b.volPaths[v].Outer {
			if !slices.Contains(outer, id) {
				outer = append(outer, id)
			}
		}
	}
	dp := topology.DependencyPath{Inner: slices.Clip(inner)}
	if len(outer) > 0 {
		dp.Outer = slices.Clip(outer)
	}
	from := len(b.seqs)
	b.seqs = append(b.seqs, seq...)
	b.memo = append(b.memo, sequencePath{seq: b.seqs[from:], dp: dp})
	return dp
}

// Leaves returns the plan's base-data operators in plan order, with the
// volume each reads. The slice is shared: callers must not modify it.
func (g *APG) Leaves() []Leaf { return g.leaves }

// VolumeOf returns the SAN volume a leaf operator reads ("" for interior
// operators).
func (g *APG) VolumeOf(opID int) topology.ID {
	i, ok := slices.BinarySearchFunc(g.leaves, opID, func(l Leaf, id int) int { return cmp.Compare(l.ID, id) })
	if !ok {
		return ""
	}
	return g.leaves[i].Volume
}

// DependencyPath returns the operator's inner and outer dependency paths.
// Interior operators may share them: callers must not modify them.
func (g *APG) DependencyPath(opID int) topology.DependencyPath {
	if opID < 1 || opID > len(g.paths) {
		return topology.DependencyPath{}
	}
	return g.paths[opID-1]
}

// LeavesOnVolume returns the leaf operator IDs reading the given volume,
// in plan order.
func (g *APG) LeavesOnVolume(vol topology.ID) []int {
	var out []int
	for _, leaf := range g.leaves {
		if leaf.Volume == vol {
			out = append(out, leaf.ID)
		}
	}
	return out
}

// Volumes returns the distinct volumes the plan touches, sorted. The
// slice is shared: callers must not modify it.
func (g *APG) Volumes() []topology.ID { return g.volumes }

// Tables returns the distinct base tables the plan reads, sorted. The
// slice is shared: callers must not modify it.
func (g *APG) Tables() []string { return g.tables }

// Components returns every SAN component appearing on any operator's
// inner dependency path, sorted and de-duplicated.
func (g *APG) Components() []topology.ID {
	var out []topology.ID
	for _, dp := range g.paths {
		out = append(out, dp.Inner...)
	}
	slices.Sort(out)
	return slices.Compact(out)
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
	for _, comp := range g.DependencyPath(opID).Inner {
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
	fmt.Fprintf(&b, "%d operators, %d leaves\n\n", g.Plan.NumOperators(), len(g.leaves))
	var walk func(n *plan.Node, depth int, prefix string)
	walk = func(n *plan.Node, depth int, prefix string) {
		suffix := ""
		if n.IsLeaf() {
			vol := g.VolumeOf(n.ID)
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
