package topology

import (
	"cmp"
	"fmt"
	"slices"
)

// Route is the ordered list of components an I/O traverses from a server
// to the subsystem hosting a volume: server, HBA, ports, switches, and the
// subsystem itself.
type Route []ID

// FabricRoute computes the component path from server to the subsystem
// that hosts volume, honouring cabling and zoning. It returns an error if
// the server has no LUN visibility to the volume or no zoned path exists.
//
// The search runs breadth-first over ports: from each server HBA port,
// across cables, through switch ports (traffic crosses a switch between
// any two of its ports), to a subsystem port that shares a zone with the
// originating HBA port.
func (c *Config) FabricRoute(server, volume ID) (Route, error) {
	return c.PathFinder(server).route(volume)
}

// VolumeDependencyPath computes the inner and outer dependency paths for
// I/O issued by server against volume, per Section 3 of the paper: the
// inner path for the Index Scan O23 example is the server, HBA, FC
// switches, storage subsystem, pool P2, volume V2, and disks 5-10; the
// outer path is the volumes sharing those disks.
func (c *Config) VolumeDependencyPath(server, volume ID) (DependencyPath, error) {
	return c.PathFinder(server).VolumeDependencyPath(volume)
}

// PathFinder resolves the dependency paths of one server's I/O, volume
// by volume. It keeps its fabric-search buffers between calls, so
// resolving every volume a plan reads costs one set of them. A PathFinder
// is not safe for concurrent use.
type PathFinder struct {
	c      *Config
	server ID

	order []queued // breadth-first visit order: every port seen so far
	next  []ID     // one port's neighbours, sorted
	path  []ID     // the ports in reverse, then the route
	ports []ID     // the route's ports and switches, forward
}

// queued is one port in the breadth-first search and the index in the
// visit order of the port it was reached from (-1 for the source).
type queued struct {
	port ID
	prev int
}

// PathFinder returns a path finder for I/O issued by server.
func (c *Config) PathFinder(server ID) *PathFinder {
	return &PathFinder{c: c, server: server}
}

// VolumeDependencyPath computes the inner and outer dependency paths of
// the finder's server against volume; see Config.VolumeDependencyPath.
// The paths are freshly allocated and belong to the caller.
func (f *PathFinder) VolumeDependencyPath(volume ID) (DependencyPath, error) {
	route, err := f.route(volume)
	if err != nil {
		return DependencyPath{}, err
	}
	c := f.c
	pool := c.PoolOf(volume)
	inner := make([]ID, 0, len(route)+2+len(c.children[pool]))
	inner = append(inner, route...)
	inner = append(inner, pool, volume)
	inner = c.appendChildrenOfKind(inner, pool, KindDisk)
	return DependencyPath{
		Inner: inner,
		Outer: c.SharingVolumes(volume),
	}, nil
}

// route is FabricRoute; the returned route is the finder's buffer, valid
// until its next call.
func (f *PathFinder) route(volume ID) (Route, error) {
	c, server := f.c, f.server
	if err := cmp.Or(c.expect(server, KindServer), c.expect(volume, KindVolume)); err != nil {
		return nil, err
	}
	if !c.LUNVisible(volume, server) {
		return nil, fmt.Errorf("topology: volume %q not LUN-mapped to server %q", volume, server)
	}
	pool := c.PoolOf(volume)
	subsystem := c.parent[pool]
	if subsystem == "" {
		return nil, fmt.Errorf("topology: volume %q has no subsystem", volume)
	}

	for _, hba := range c.children[server] {
		if c.components[hba].Kind != KindHBA {
			continue
		}
		for _, srcPort := range c.children[hba] {
			if c.components[srcPort].Kind != KindPort || !f.bfsPorts(srcPort, subsystem) {
				continue
			}
			route := append(f.path[:0], server, hba)
			route = append(route, f.ports...)
			f.path = append(route, subsystem)
			return f.path, nil
		}
	}
	return nil, fmt.Errorf("topology: no zoned fabric path from %q to subsystem %q for volume %q",
		server, subsystem, volume)
}

// bfsPorts searches from srcPort to any port of the target subsystem that
// is zoned with srcPort. On success it leaves the port/switch path,
// including both endpoints, in f.ports and reports true.
func (f *PathFinder) bfsPorts(srcPort ID, subsystem ID) bool {
	c := f.c
	f.order = append(f.order[:0], queued{port: srcPort, prev: -1})

	for head := 0; head < len(f.order); head++ {
		cur := f.order[head].port
		owner := c.parent[cur]
		// Success: a subsystem port zoned with the source HBA port.
		if owner == subsystem && c.Zoned(srcPort, cur) {
			f.reconstruct(head)
			return true
		}
		// Expand along cables.
		f.next = append(f.next[:0], c.fabric[cur]...)
		// Expand across the owning switch to its sibling ports.
		if owner != "" && c.components[owner].Kind == KindSwitch {
			f.next = c.appendChildrenOfKind(f.next, owner, KindPort)
		}
		slices.Sort(f.next)
		for _, nb := range f.next {
			if !slices.ContainsFunc(f.order, func(q queued) bool { return q.port == nb }) {
				f.order = append(f.order, queued{port: nb, prev: head})
			}
		}
	}
	return false
}

// reconstruct writes the path from the source to order[i] into f.ports,
// inserting each switch once, between the entry and exit port that belong
// to it, so routes read server, hba, port, switch, port, ...,
// subsystemPort.
func (f *PathFinder) reconstruct(i int) {
	c := f.c
	rev := f.path[:0]
	for ; i >= 0; i = f.order[i].prev {
		rev = append(rev, f.order[i].port)
	}
	slices.Reverse(rev)
	f.path = rev
	f.ports = f.ports[:0]
	for j, p := range rev {
		f.ports = append(f.ports, p)
		owner := c.parent[p]
		if owner != "" && c.components[owner].Kind == KindSwitch &&
			j+1 < len(rev) && c.parent[rev[j+1]] == owner {
			f.ports = append(f.ports, owner)
		}
	}
}

// DependencyPath is the set of components whose performance can affect an
// I/O consumer, split as the paper does into the inner path (direct
// effect) and outer path (indirect, through shared components).
type DependencyPath struct {
	// Inner lists components on the direct I/O path: server, HBA, ports,
	// switches, subsystem, pool, volume, and the volume's disks.
	Inner []ID
	// Outer lists components that influence the inner path indirectly:
	// the other volumes sharing the pool's disks.
	Outer []ID
}

// Contains reports whether id is on either path.
func (d DependencyPath) Contains(id ID) bool {
	for _, x := range d.Inner {
		if x == id {
			return true
		}
	}
	for _, x := range d.Outer {
		if x == id {
			return true
		}
	}
	return false
}
