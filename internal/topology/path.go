package topology

import (
	"cmp"
	"fmt"
	"sort"
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

	for _, hba := range c.ChildrenOfKind(server, KindHBA) {
		for _, srcPort := range c.ChildrenOfKind(hba, KindPort) {
			if path := c.bfsPorts(srcPort, subsystem); path != nil {
				route := Route{server, hba}
				route = append(route, path...)
				route = append(route, subsystem)
				return route, nil
			}
		}
	}
	return nil, fmt.Errorf("topology: no zoned fabric path from %q to subsystem %q for volume %q",
		server, subsystem, volume)
}

// bfsPorts searches from srcPort to any port of the target subsystem that
// is zoned with srcPort. It returns the port/switch path including both
// endpoints, or nil.
func (c *Config) bfsPorts(srcPort ID, subsystem ID) []ID {
	type queued struct {
		port ID
		prev int // index into visitOrder, -1 for root
	}
	var order []queued
	seen := map[ID]bool{srcPort: true}
	order = append(order, queued{port: srcPort, prev: -1})

	reconstruct := func(i int) []ID {
		var rev []ID
		for ; i >= 0; i = order[i].prev {
			rev = append(rev, order[i].port)
		}
		ports := make([]ID, 0, len(rev))
		for j := len(rev) - 1; j >= 0; j-- {
			ports = append(ports, rev[j])
		}
		// Insert each switch once, between the entry and exit port that
		// belong to it, so routes read server, hba, port, switch, port,
		// ..., subsystemPort.
		var path []ID
		for j, p := range ports {
			path = append(path, p)
			owner := c.parent[p]
			if owner != "" && c.components[owner].Kind == KindSwitch &&
				j+1 < len(ports) && c.parent[ports[j+1]] == owner {
				path = append(path, owner)
			}
		}
		return path
	}

	for head := 0; head < len(order); head++ {
		cur := order[head].port
		owner := c.parent[cur]
		// Success: a subsystem port zoned with the source HBA port.
		if owner == subsystem && c.Zoned(srcPort, cur) {
			return reconstruct(head)
		}
		// Expand along cables.
		neighbors := append([]ID(nil), c.fabric[cur]...)
		// Expand across the owning switch to its sibling ports.
		if owner != "" && c.components[owner].Kind == KindSwitch {
			neighbors = append(neighbors, c.ChildrenOfKind(owner, KindPort)...)
		}
		sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
		for _, nb := range neighbors {
			if !seen[nb] {
				seen[nb] = true
				order = append(order, queued{port: nb, prev: head})
			}
		}
	}
	return nil
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

// VolumeDependencyPath computes the inner and outer dependency paths for
// I/O issued by server against volume, per Section 3 of the paper: the
// inner path for the Index Scan O23 example is the server, HBA, FC
// switches, storage subsystem, pool P2, volume V2, and disks 5-10; the
// outer path is the volumes sharing those disks.
func (c *Config) VolumeDependencyPath(server, volume ID) (DependencyPath, error) {
	route, err := c.FabricRoute(server, volume)
	if err != nil {
		return DependencyPath{}, err
	}
	inner := append([]ID(nil), route...)
	pool := c.PoolOf(volume)
	inner = append(inner, pool, volume)
	inner = append(inner, c.DisksOf(volume)...)
	return DependencyPath{
		Inner: inner,
		Outer: c.SharingVolumes(volume),
	}, nil
}
