package sanperf

import (
	"cmp"
	"slices"

	"diads/internal/topology"
)

// layout is the topology as the model reads it: the sorted component IDs
// and the containment between them, resolved once per configuration
// version instead of once per emission chunk or point query. It is
// immutable once published, so any number of goroutines may read it.
type layout struct {
	version uint64
	vols    []topology.ID // every volume, by ID
	disks   []topology.ID // every disk, by ID
	pools   []topology.ID // every pool, by ID
	volPool []int         // index into pools of each volume's pool; -1 outside any
	// diskPool and diskSlot place each disk in its pool: the pool's index
	// and the disk's index among the pool's disks.
	diskPool, diskSlot []int
	// poolVols and poolDisks list each pool's volume and disk indices,
	// in ID order.
	poolVols, poolDisks [][]int
	subsystems          []topology.ID
	subPools            [][]int // each subsystem's pool indices, in ID order
}

// routes is one server's FC ports at one configuration version.
type routes struct {
	version uint64
	server  topology.ID
	ports   []routePort // by ID
}

// routePort is an FC port on a fabric route from the server and the
// volumes (layout indices) routed through it.
type routePort struct {
	id   topology.ID
	vols []int
}

// layout returns the layout of the configuration's current version,
// building and publishing it if the version moved. Two goroutines that
// find it stale may both build one; each publishes a complete layout of
// the same version, so either serves.
func (m *Model) layout() *layout {
	v := m.cfg.Version()
	if l := m.lay.Load(); l != nil && l.version == v {
		return l
	}
	l := newLayout(m.cfg)
	m.lay.Store(l)
	return l
}

func newLayout(cfg *topology.Config) *layout {
	l := &layout{
		version:    cfg.Version(),
		vols:       cfg.All(topology.KindVolume),
		disks:      cfg.All(topology.KindDisk),
		pools:      cfg.All(topology.KindPool),
		subsystems: cfg.All(topology.KindSubsystem),
	}
	l.poolVols = make([][]int, len(l.pools))
	l.poolDisks = make([][]int, len(l.pools))
	l.volPool = make([]int, len(l.vols))
	for vi, id := range l.vols {
		pi := l.poolIndex(cfg.PoolOf(id))
		l.volPool[vi] = pi
		if pi >= 0 {
			l.poolVols[pi] = append(l.poolVols[pi], vi)
		}
	}
	l.diskPool = make([]int, len(l.disks))
	l.diskSlot = make([]int, len(l.disks))
	for di, id := range l.disks {
		pi := l.poolIndex(cfg.PoolOf(id))
		l.diskPool[di], l.diskSlot[di] = pi, len(l.poolDisks[pi])
		l.poolDisks[pi] = append(l.poolDisks[pi], di)
	}
	l.subPools = make([][]int, len(l.subsystems))
	for si, ss := range l.subsystems {
		for _, pool := range cfg.ChildrenOfKind(ss, topology.KindPool) {
			l.subPools[si] = append(l.subPools[si], l.poolIndex(pool))
		}
	}
	return l
}

// poolIndex returns the index of a pool, or -1 ("" or unknown).
func (l *layout) poolIndex(id topology.ID) int {
	i, ok := slices.BinarySearch(l.pools, id)
	if !ok {
		return -1
	}
	return i
}

// routes returns the FC ports on the server's routes at the layout's
// version, resolving and publishing them if the version or the server
// moved.
func (m *Model) routes(l *layout, server topology.ID) *routes {
	if r := m.rts.Load(); r != nil && r.version == l.version && r.server == server {
		return r
	}
	r := &routes{version: l.version, server: server, ports: l.route(m.cfg, server)}
	m.rts.Store(r)
	return r
}

// route resolves the FC ports on the fabric route from server to each
// volume mapped to it, and the volumes each port carries. A route runs
// from the server to the subsystem hosting the volume and depends on
// nothing else, so it is searched once per subsystem.
func (l *layout) route(cfg *topology.Config, server topology.ID) []routePort {
	type found struct {
		ss    topology.ID
		route topology.Route
		err   error
	}
	var routes []found
	var ports []routePort
	for vi, vol := range l.vols {
		if !cfg.LUNVisible(vol, server) {
			continue
		}
		ss := cfg.Parent(cfg.PoolOf(vol))
		r := slices.IndexFunc(routes, func(r found) bool { return r.ss == ss })
		if r < 0 {
			route, err := cfg.FabricRoute(server, vol)
			r = len(routes)
			routes = append(routes, found{ss, route, err})
		}
		route, err := routes[r].route, routes[r].err
		if err != nil {
			continue
		}
		for _, id := range route {
			if comp, ok := cfg.Get(id); !ok || comp.Kind != topology.KindPort {
				continue
			}
			j := slices.IndexFunc(ports, func(p routePort) bool { return p.id == id })
			if j < 0 {
				j = len(ports)
				ports = append(ports, routePort{id: id})
			}
			ports[j].vols = append(ports[j].vols, vi)
		}
	}
	slices.SortFunc(ports, func(a, b routePort) int { return cmp.Compare(a.id, b.id) })
	return ports
}
