package topology

import (
	"testing"
)

// buildTestSAN constructs a miniature of the paper's Figure 1 environment:
// a DB server with one HBA and two ports, an edge and a core switch, one
// subsystem with pools P1 (disks 1-4) and P2 (disks 5-10), volumes V1, V2
// plus bystanders V3, V4.
func buildTestSAN(t *testing.T) *Config {
	t.Helper()
	c := New()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(c.AddServer("srv-db", "dbserver", map[string]string{"os": "RedHat Linux"}))
	check(c.AddHBA("hba-1", "srv-db", "qla2340"))
	check(c.AddPort("hba-1-p0", "hba-1", "hba port 0"))
	check(c.AddSwitch("sw-edge", "edge1", "edge"))
	check(c.AddPort("sw-edge-p0", "sw-edge", "edge p0"))
	check(c.AddPort("sw-edge-p1", "sw-edge", "edge p1"))
	check(c.AddSwitch("sw-core", "core1", "core"))
	check(c.AddPort("sw-core-p0", "sw-core", "core p0"))
	check(c.AddPort("sw-core-p1", "sw-core", "core p1"))
	check(c.AddSubsystem("ss-1", "DS6000", "IBM DS6000"))
	check(c.AddPort("ss-1-p0", "ss-1", "controller port 0"))
	check(c.AddPool("pool-P1", "ss-1", "P1", "RAID5"))
	check(c.AddPool("pool-P2", "ss-1", "P2", "RAID5"))
	for _, d := range []string{"disk-1", "disk-2", "disk-3", "disk-4"} {
		check(c.AddDisk(ID(d), "pool-P1", d))
	}
	for _, d := range []string{"disk-5", "disk-6", "disk-7", "disk-8", "disk-9", "disk-10"} {
		check(c.AddDisk(ID(d), "pool-P2", d))
	}
	check(c.AddVolume("vol-V1", "pool-P1", "V1", 100))
	check(c.AddVolume("vol-V3", "pool-P1", "V3", 50))
	check(c.AddVolume("vol-V2", "pool-P2", "V2", 200))
	check(c.AddVolume("vol-V4", "pool-P2", "V4", 50))
	check(c.Cable("hba-1-p0", "sw-edge-p0"))
	check(c.Cable("sw-edge-p1", "sw-core-p0"))
	check(c.Cable("sw-core-p1", "ss-1-p0"))
	check(c.AddZone("z-db", "hba-1-p0", "ss-1-p0"))
	check(c.MapLUN("vol-V1", "srv-db"))
	check(c.MapLUN("vol-V2", "srv-db"))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFabricRoute(t *testing.T) {
	c := buildTestSAN(t)
	route, err := c.FabricRoute("srv-db", "vol-V1")
	if err != nil {
		t.Fatal(err)
	}
	want := []ID{"srv-db", "hba-1", "hba-1-p0", "sw-edge-p0", "sw-edge",
		"sw-edge-p1", "sw-core-p0", "sw-core", "sw-core-p1", "ss-1-p0", "ss-1"}
	if len(route) != len(want) {
		t.Fatalf("route length: got %d (%v), want %d", len(route), route, len(want))
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route[%d]: got %q, want %q (full: %v)", i, route[i], want[i], route)
		}
	}
}

func TestFabricRouteRequiresLUNMapping(t *testing.T) {
	c := buildTestSAN(t)
	if _, err := c.FabricRoute("srv-db", "vol-V3"); err == nil {
		t.Fatalf("V3 is not mapped to srv-db; route should fail")
	}
}

func TestFabricRouteRequiresZoning(t *testing.T) {
	c := buildTestSAN(t)
	c.RemoveZone("z-db")
	if _, err := c.FabricRoute("srv-db", "vol-V1"); err == nil {
		t.Fatalf("without zoning the route should fail")
	}
}

func TestVolumeDependencyPath(t *testing.T) {
	c := buildTestSAN(t)
	dp, err := c.VolumeDependencyPath("srv-db", "vol-V2")
	if err != nil {
		t.Fatal(err)
	}
	// Inner path must include the pool, the volume, and disks 5-10 —
	// the paper's O23 example.
	for _, id := range []ID{"pool-P2", "vol-V2", "disk-5", "disk-10", "srv-db", "ss-1"} {
		if !dp.Contains(id) {
			t.Errorf("inner path missing %q: %v", id, dp.Inner)
		}
	}
	// Outer path: V4 shares P2's disks.
	if len(dp.Outer) != 1 || dp.Outer[0] != "vol-V4" {
		t.Errorf("outer path: got %v, want [vol-V4]", dp.Outer)
	}
	// Disks of the other pool must not appear.
	if dp.Contains("disk-1") {
		t.Errorf("P1 disk leaked into V2's dependency path")
	}
}

func TestSharingVolumes(t *testing.T) {
	c := buildTestSAN(t)
	sh := c.SharingVolumes("vol-V1")
	if len(sh) != 1 || sh[0] != "vol-V3" {
		t.Fatalf("SharingVolumes(V1): got %v", sh)
	}
}

func TestDisksOf(t *testing.T) {
	c := buildTestSAN(t)
	d1 := c.DisksOf("vol-V1")
	if len(d1) != 4 {
		t.Fatalf("V1 disks: got %v", d1)
	}
	d2 := c.DisksOf("vol-V2")
	if len(d2) != 6 {
		t.Fatalf("V2 disks: got %v", d2)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	c := New()
	if err := c.AddServer("x", "a", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.AddServer("x", "b", nil); err == nil {
		t.Fatalf("duplicate ID should be rejected")
	}
}

func TestValidateCatchesEmptyPool(t *testing.T) {
	c := New()
	if err := c.AddSubsystem("ss", "s", "m"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPool("p", "ss", "P", "RAID5"); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil {
		t.Fatalf("pool without disks should fail validation")
	}
}

func TestEventLogOrderingAndQueries(t *testing.T) {
	var l EventLog
	l.Record(Event{T: 300, Kind: EvZoneCreated, Subject: "z2"})
	l.Record(Event{T: 100, Kind: EvVolumeCreated, Subject: "vol-Vp"})
	l.Record(Event{T: 200, Kind: EvLUNMapped, Subject: "vol-Vp"})
	all := l.All()
	if len(all) != 3 || all[0].Kind != EvVolumeCreated || all[2].Kind != EvZoneCreated {
		t.Fatalf("events not time-ordered: %v", all)
	}
	if got := l.OfKind(EvLUNMapped); len(got) != 1 || got[0].Subject != "vol-Vp" {
		t.Fatalf("OfKind: %v", got)
	}
	if got := l.Between(100, 300); len(got) != 2 {
		t.Fatalf("Between(100,300] should exclude t=100: %v", got)
	}
}

func TestZonedAndLUNVisible(t *testing.T) {
	c := buildTestSAN(t)
	if !c.Zoned("hba-1-p0", "ss-1-p0") {
		t.Fatalf("ports in same zone should be Zoned")
	}
	if c.Zoned("hba-1-p0", "sw-edge-p0") {
		t.Fatalf("unzoned ports reported as zoned")
	}
	if !c.LUNVisible("vol-V1", "srv-db") || c.LUNVisible("vol-V3", "srv-db") {
		t.Fatalf("LUN visibility wrong")
	}
}

func TestRouteSurvivesNewVolumeOnSharedPool(t *testing.T) {
	// The scenario-1 misconfiguration: a new volume V' carved from P1 and
	// mapped to another host must not disturb the DB server's route, but
	// must appear in V1's outer dependency path.
	c := buildTestSAN(t)
	if err := c.AddServer("srv-other", "other", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.AddVolume("vol-Vp", "pool-P1", "V'", 80); err != nil {
		t.Fatal(err)
	}
	if err := c.MapLUN("vol-Vp", "srv-other"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FabricRoute("srv-db", "vol-V1"); err != nil {
		t.Fatal(err)
	}
	dp, err := c.VolumeDependencyPath("srv-db", "vol-V1")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range dp.Outer {
		if v == "vol-Vp" {
			found = true
		}
	}
	if !found {
		t.Fatalf("V' should be on V1's outer dependency path: %v", dp.Outer)
	}
}
