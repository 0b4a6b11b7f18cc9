package topology

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Zone is a named set of FC ports allowed to communicate, the first of the
// two access-control mechanisms the paper describes.
type Zone struct {
	Name    string
	Members []ID // port IDs
}

// contains reports whether the zone includes the port.
func (z Zone) contains(p ID) bool {
	for _, m := range z.Members {
		if m == p {
			return true
		}
	}
	return false
}

// Config is the SAN configuration database: every component, their
// containment and fabric connectivity, zoning, LUN mapping, and the
// change log. The zero value is not usable; call New.
type Config struct {
	components map[ID]*Component
	// parent maps a contained component to its container (port→HBA,
	// HBA→server, port→switch, pool→subsystem, disk→pool, volume→pool).
	parent map[ID]ID
	// children is the inverse of parent, kept sorted for determinism.
	children map[ID][]ID
	// fabric holds undirected port-to-port cable links.
	fabric map[ID][]ID
	// zones lists the zoning configuration.
	zones []Zone
	// lunMap maps volume → servers permitted to access it.
	lunMap map[ID][]ID
	// version counts mutations of everything above (see Version).
	version uint64
	// Log is the configuration change log and system event stream.
	Log EventLog
}

// New returns an empty SAN configuration.
func New() *Config {
	return &Config{
		components: make(map[ID]*Component),
		parent:     make(map[ID]ID),
		children:   make(map[ID][]ID),
		fabric:     make(map[ID][]ID),
		lunMap:     make(map[ID][]ID),
	}
}

// add registers a component, or returns an error if the ID is taken.
func (c *Config) add(comp *Component) error {
	if comp.ID == "" {
		return fmt.Errorf("topology: component with empty ID")
	}
	if _, ok := c.components[comp.ID]; ok {
		return fmt.Errorf("topology: duplicate component ID %q", comp.ID)
	}
	c.components[comp.ID] = comp
	c.version++
	return nil
}

// Version identifies the configuration's current state: every mutation
// of its components, containment, cabling, zoning or LUN mapping bumps
// it, and nothing else does. Callers that derive data from the
// configuration (sanperf's emission layout) key it on the version and
// rebuild when it moves. The change log is not part of the state.
func (c *Config) Version() uint64 { return c.version }

// attach records containment of child under parent.
func (c *Config) attach(parent, child ID) {
	c.parent[child] = parent
	c.version++
	c.children[parent] = append(c.children[parent], child)
	sort.Slice(c.children[parent], func(i, j int) bool {
		return c.children[parent][i] < c.children[parent][j]
	})
}

// expect returns an error unless id names a component of kind want.
// Mutators check their references with it: a change posted over the
// ingest API may name anything.
func (c *Config) expect(id ID, want Kind) error {
	comp, ok := c.components[id]
	if !ok {
		return fmt.Errorf("topology: unknown component %q", id)
	}
	if comp.Kind != want {
		return fmt.Errorf("topology: %q is a %s, want %s", id, comp.Kind, want)
	}
	return nil
}

// addChild registers comp inside parent, which must be a component of
// kind want.
func (c *Config) addChild(parent ID, want Kind, comp *Component) error {
	if err := c.expect(parent, want); err != nil {
		return err
	}
	if err := c.add(comp); err != nil {
		return err
	}
	c.attach(parent, comp.ID)
	return nil
}

// AddServer registers a server.
func (c *Config) AddServer(id ID, name string, attrs map[string]string) error {
	return c.add(&Component{ID: id, Kind: KindServer, Name: name, Attrs: attrs})
}

// AddHBA registers a host bus adapter on a server.
func (c *Config) AddHBA(id ID, server ID, name string) error {
	return c.addChild(server, KindServer, &Component{ID: id, Kind: KindHBA, Name: name})
}

// AddSwitch registers an FC switch. Role is recorded as an attribute
// ("edge" or "core").
func (c *Config) AddSwitch(id ID, name, role string) error {
	return c.add(&Component{ID: id, Kind: KindSwitch, Name: name,
		Attrs: map[string]string{"role": role}})
}

// AddSubsystem registers a storage subsystem (controller).
func (c *Config) AddSubsystem(id ID, name, model string) error {
	return c.add(&Component{ID: id, Kind: KindSubsystem, Name: name,
		Attrs: map[string]string{"model": model}})
}

// AddPort registers an FC port on an HBA, switch, or subsystem.
func (c *Config) AddPort(id ID, owner ID, name string) error {
	ownerComp, ok := c.components[owner]
	if !ok {
		return fmt.Errorf("topology: port %q: unknown owner %q", id, owner)
	}
	switch ownerComp.Kind {
	case KindHBA, KindSwitch, KindSubsystem:
	default:
		return fmt.Errorf("topology: port %q: owner %q is a %s", id, owner, ownerComp.Kind)
	}
	if err := c.add(&Component{ID: id, Kind: KindPort, Name: name}); err != nil {
		return err
	}
	c.attach(owner, id)
	return nil
}

// AddPool registers a storage pool inside a subsystem.
func (c *Config) AddPool(id ID, subsystem ID, name, raid string) error {
	return c.addChild(subsystem, KindSubsystem, &Component{ID: id, Kind: KindPool, Name: name,
		Attrs: map[string]string{"raid": raid}})
}

// AddDisk registers a physical disk inside a pool.
func (c *Config) AddDisk(id ID, pool ID, name string) error {
	return c.addChild(pool, KindPool, &Component{ID: id, Kind: KindDisk, Name: name})
}

// AddVolume carves a storage volume out of a pool. Its data stripes across
// every disk of the pool.
func (c *Config) AddVolume(id ID, pool ID, name string, sizeGB int) error {
	return c.addChild(pool, KindPool, &Component{ID: id, Kind: KindVolume, Name: name,
		Attrs: map[string]string{"sizeGB": fmt.Sprint(sizeGB)}})
}

// Cable records an undirected fabric link between two ports.
func (c *Config) Cable(a, b ID) error {
	for _, p := range []ID{a, b} {
		comp, ok := c.components[p]
		if !ok || comp.Kind != KindPort {
			return fmt.Errorf("topology: cable endpoint %q is not a port", p)
		}
	}
	c.fabric[a] = append(c.fabric[a], b)
	c.fabric[b] = append(c.fabric[b], a)
	c.version++
	return nil
}

// AddZone installs a zone over the given port IDs.
func (c *Config) AddZone(name string, ports ...ID) error {
	for _, p := range ports {
		comp, ok := c.components[p]
		if !ok || comp.Kind != KindPort {
			return fmt.Errorf("topology: zone %q member %q is not a port", name, p)
		}
	}
	c.zones = append(c.zones, Zone{Name: name, Members: append([]ID(nil), ports...)})
	c.version++
	return nil
}

// RemoveZone deletes a zone by name; it reports whether one was removed.
func (c *Config) RemoveZone(name string) bool {
	for i, z := range c.zones {
		if z.Name == name {
			c.zones = append(c.zones[:i], c.zones[i+1:]...)
			c.version++
			return true
		}
	}
	return false
}

// MapLUN grants a server access to a volume (LUN mapping/masking).
func (c *Config) MapLUN(volume, server ID) error {
	if err := cmp.Or(c.expect(volume, KindVolume), c.expect(server, KindServer)); err != nil {
		return err
	}
	c.lunMap[volume] = append(c.lunMap[volume], server)
	c.version++
	return nil
}

// Zoned reports whether two ports share at least one zone.
func (c *Config) Zoned(a, b ID) bool {
	for _, z := range c.zones {
		if z.contains(a) && z.contains(b) {
			return true
		}
	}
	return false
}

// LUNVisible reports whether the server may access the volume.
func (c *Config) LUNVisible(volume, server ID) bool {
	for _, s := range c.lunMap[volume] {
		if s == server {
			return true
		}
	}
	return false
}

// Get returns the component with the given ID, if present.
func (c *Config) Get(id ID) (*Component, bool) {
	comp, ok := c.components[id]
	return comp, ok
}

// MustGet returns the component or panics; for simulator-internal lookups.
func (c *Config) MustGet(id ID) *Component {
	comp, ok := c.components[id]
	if !ok {
		panic(fmt.Sprintf("topology: unknown component %q", id))
	}
	return comp
}

// Parent returns the container of id ("" if none).
func (c *Config) Parent(id ID) ID { return c.parent[id] }

// ChildrenOfKind returns id's children of the given kind, sorted by ID.
func (c *Config) ChildrenOfKind(id ID, kind Kind) []ID {
	n := 0
	for _, ch := range c.children[id] {
		if c.components[ch].Kind == kind {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return c.appendChildrenOfKind(make([]ID, 0, n), id, kind)
}

// appendChildrenOfKind appends id's children of the given kind to dst, in
// ID order.
func (c *Config) appendChildrenOfKind(dst []ID, id ID, kind Kind) []ID {
	for _, ch := range c.children[id] {
		if c.components[ch].Kind == kind {
			dst = append(dst, ch)
		}
	}
	return dst
}

// All returns every component of the given kind, sorted by ID.
func (c *Config) All(kind Kind) []ID {
	var out []ID
	for id, comp := range c.components {
		if comp.Kind == kind {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PoolOf returns the pool containing a volume or disk.
func (c *Config) PoolOf(id ID) ID {
	p := c.parent[id]
	if p == "" {
		return ""
	}
	if comp, ok := c.components[p]; ok && comp.Kind == KindPool {
		return p
	}
	return ""
}

// DisksOf returns the disks a volume stripes across (all disks of its
// pool), sorted by ID.
func (c *Config) DisksOf(volume ID) []ID {
	pool := c.PoolOf(volume)
	if pool == "" {
		return nil
	}
	return c.ChildrenOfKind(pool, KindDisk)
}

// VolumesInPool returns the volumes carved from a pool, sorted by ID.
func (c *Config) VolumesInPool(pool ID) []ID {
	return c.ChildrenOfKind(pool, KindVolume)
}

// SharingVolumes returns the other volumes that share disks with volume
// (i.e. the rest of its pool), the core of the paper's outer dependency
// path example.
func (c *Config) SharingVolumes(volume ID) []ID {
	out := slices.DeleteFunc(c.VolumesInPool(c.PoolOf(volume)), func(v ID) bool { return v == volume })
	if len(out) == 0 {
		return nil
	}
	return out
}

// ServersMappedTo returns the servers with LUN access to the volume.
func (c *Config) ServersMappedTo(volume ID) []ID {
	out := make([]ID, len(c.lunMap[volume]))
	copy(out, c.lunMap[volume])
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks structural invariants: every pool has at least one disk,
// every volume belongs to a pool, every cable endpoint exists, and every
// zone member exists. It returns the first violation found.
func (c *Config) Validate() error {
	for _, pool := range c.All(KindPool) {
		if len(c.ChildrenOfKind(pool, KindDisk)) == 0 {
			return fmt.Errorf("topology: pool %q has no disks", pool)
		}
	}
	for _, vol := range c.All(KindVolume) {
		if c.PoolOf(vol) == "" {
			return fmt.Errorf("topology: volume %q has no pool", vol)
		}
	}
	for _, z := range c.zones {
		for _, m := range z.Members {
			if _, ok := c.components[m]; !ok {
				return fmt.Errorf("topology: zone %q references unknown port %q", z.Name, m)
			}
		}
	}
	return nil
}

// Zones returns a copy of the zoning configuration.
func (c *Config) Zones() []Zone {
	out := make([]Zone, len(c.zones))
	copy(out, c.zones)
	return out
}
