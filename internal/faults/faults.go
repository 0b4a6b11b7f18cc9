// Package faults is the fault injector of the reproduction, standing in
// for the paper's testbed fault injector (Section 6, footnote 1): it can
// inject SAN misconfigurations, volume and server contention, RAID
// rebuilds, disk failures, changes in data properties, table-locking
// problems, and plan-changing schema/configuration events. Faults are
// applied to a testbed before Simulate. Their configuration changes are
// change-log events applied through testbed.Apply: the SAN ones at
// injection, the database ones scheduled into the testbed's Changes.
package faults

import (
	"fmt"
	"slices"

	"diads/internal/dbsys"
	"diads/internal/sanperf"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
	"diads/internal/topology"
	"diads/internal/workload"
)

// Fault is one injectable problem. Answer resolves, against the testbed
// the fault was applied to, the causes a correct diagnosis may name for
// it: any one of them is right.
type Fault interface {
	Name() string
	Apply(tb *testbed.Testbed) error
	Answer(tb *testbed.Testbed) []Cause
}

// Cause is a root cause in the symptoms database's vocabulary: a cause
// kind (symptoms.Cause*) and the component, table, index or parameter
// it names. A diagnosis's root cause and the registry's incidents use
// the same words.
type Cause struct {
	Kind, Subject string
}

// String renders the cause the way reports do: kind(subject).
func (c Cause) String() string { return c.Kind + "(" + c.Subject + ")" }

// poolVolumes names kind on each volume of the database's tablespaces
// that lives in pool: the victims a SAN fault in that pool slows down.
func poolVolumes(tb *testbed.Testbed, kind string, pool topology.ID) []Cause {
	var out []Cause
	for _, ts := range tb.Cat.Tablespaces() {
		c := Cause{kind, string(ts.Volume)}
		if tb.Cfg.PoolOf(ts.Volume) == pool && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// SANMisconfiguration reproduces scenario 1: a new volume V' is carved
// from the pool backing one of the query's volumes and zoned/LUN-mapped
// to another host, whose workload then contends for the same physical
// disks.
type SANMisconfiguration struct {
	// At is when the misconfiguration happens.
	At simtime.Time
	// Until bounds the contending workload (use the simulation end).
	Until simtime.Time
	// Pool is the victim pool (P1 in the paper).
	Pool topology.ID
	// NewVolume is the created volume's ID (V').
	NewVolume topology.ID
	// Host is the server the volume is mapped to.
	Host topology.ID
	// ReadIOPS and WriteIOPS describe the contending workload.
	ReadIOPS, WriteIOPS float64
}

// Name implements Fault.
func (f *SANMisconfiguration) Name() string { return "san-misconfiguration" }

// Answer implements Fault: the misconfiguration on each of the
// database's volumes that shares the pool with V'.
func (f *SANMisconfiguration) Answer(tb *testbed.Testbed) []Cause {
	return poolVolumes(tb, symptoms.CauseSANMisconfig, f.Pool)
}

// Apply implements Fault. The changes apply at injection, not at their
// logged times: V' must be emitted from where it always has been.
func (f *SANMisconfiguration) Apply(tb *testbed.Testbed) error {
	err := applyAll(tb,
		topology.Event{T: f.At, Kind: topology.EvVolumeCreated, Subject: f.NewVolume,
			Detail: fmt.Sprintf("volume V' created in %s", f.Pool), Pool: f.Pool, Name: "V'", SizeGB: 80},
		topology.Event{T: f.At.Add(30 * simtime.Second), Kind: topology.EvZoneCreated, Subject: f.NewVolume,
			Detail: fmt.Sprintf("zoning for host %s", f.Host)},
		topology.Event{T: f.At.Add(simtime.Minute), Kind: topology.EvLUNMapped, Subject: f.NewVolume,
			Detail: fmt.Sprintf("LUN mapped to host %s", f.Host), Server: f.Host},
		topology.Event{T: f.At.Add(2 * simtime.Minute), Kind: topology.EvWorkloadStarted, Subject: f.NewVolume,
			Detail: "external workload started on V'"})
	if err != nil {
		return err
	}
	tb.SAN.AddLoad(sanperf.Load{
		Volume:    f.NewVolume,
		Iv:        simtime.NewInterval(f.At.Add(2*simtime.Minute), f.Until),
		ReadIOPS:  f.ReadIOPS,
		WriteIOPS: f.WriteIOPS,
		SeqFrac:   0.1,
		Source:    "wl-vprime",
	})
	return nil
}

// ExternalVolumeLoad reproduces scenario 2's external workloads: extra
// I/O against an existing volume, optionally bursty, with no
// configuration change.
type ExternalVolumeLoad struct {
	LoadName  string
	Volume    topology.ID
	Window    simtime.Interval
	ReadIOPS  float64
	WriteIOPS float64
	// DutyCycle < 1 with a Period makes the load bursty.
	DutyCycle float64
	Period    simtime.Duration
}

// Name implements Fault.
func (f *ExternalVolumeLoad) Name() string { return "external-volume-load" }

// Answer implements Fault: the load on each of the database's volumes
// that shares a pool with the loaded one, not the loaded volume itself.
func (f *ExternalVolumeLoad) Answer(tb *testbed.Testbed) []Cause {
	return poolVolumes(tb, symptoms.CauseExternalLoad, tb.Cfg.PoolOf(f.Volume))
}

// Apply implements Fault.
func (f *ExternalVolumeLoad) Apply(tb *testbed.Testbed) error {
	el := workload.ExternalLoad{
		Name:      f.LoadName,
		Volume:    f.Volume,
		Window:    f.Window,
		ReadIOPS:  f.ReadIOPS,
		WriteIOPS: f.WriteIOPS,
		SeqFrac:   0.2,
		DutyCycle: f.DutyCycle,
		Period:    f.Period,
	}
	for _, seg := range el.Segments() {
		tb.SAN.AddLoad(seg)
	}
	return tb.Apply(topology.Event{
		T: f.Window.Start, Kind: topology.EvWorkloadStarted, Subject: f.Volume,
		Detail: fmt.Sprintf("external workload %s", f.LoadName),
	})
}

// DataPropertyChange reproduces scenario 3: a bulk DML shifts a table's
// cardinality; the effect propagates to the SAN as extra I/O.
type DataPropertyChange struct {
	At     simtime.Time
	Table  string
	Factor float64
}

// Name implements Fault.
func (f *DataPropertyChange) Name() string { return "data-property-change" }

// Answer implements Fault.
func (f *DataPropertyChange) Answer(*testbed.Testbed) []Cause {
	return []Cause{{symptoms.CauseDataProperty, f.Table}}
}

// Apply implements Fault.
func (f *DataPropertyChange) Apply(tb *testbed.Testbed) error {
	tb.Changes = append(tb.Changes, topology.Event{
		T: f.At, Kind: topology.EvDMLBatch, Subject: topology.ID(f.Table), Factor: f.Factor,
		Detail: fmt.Sprintf("bulk DML scaled %s cardinality by %.2fx", f.Table, f.Factor),
	})
	return nil
}

// TableLockContention reproduces scenario 5's database-side problem: an
// external transaction holds exclusive table locks during query runs.
type TableLockContention struct {
	Table  string
	Holds  []simtime.Interval
	Holder string
}

// Name implements Fault.
func (f *TableLockContention) Name() string { return "table-lock-contention" }

// Answer implements Fault.
func (f *TableLockContention) Answer(*testbed.Testbed) []Cause {
	return []Cause{{symptoms.CauseLockContention, f.Table}}
}

// Apply implements Fault.
func (f *TableLockContention) Apply(tb *testbed.Testbed) error {
	if len(f.Holds) == 0 {
		return fmt.Errorf("faults: lock contention needs at least one hold")
	}
	for _, iv := range f.Holds {
		tb.Locks.AddHold(dbsys.Hold{
			Table: f.Table, Iv: iv, Mode: dbsys.LockExclusive, Holder: f.Holder,
		})
	}
	return nil
}

// RAIDRebuild steals disk bandwidth from every disk of a pool.
type RAIDRebuild struct {
	Pool      topology.ID
	Window    simtime.Interval
	Intensity float64 // extra utilization per disk, e.g. 0.5
}

// Name implements Fault.
func (f *RAIDRebuild) Name() string { return "raid-rebuild" }

// Answer implements Fault.
func (f *RAIDRebuild) Answer(*testbed.Testbed) []Cause {
	return []Cause{{symptoms.CauseRAIDRebuild, string(f.Pool)}}
}

// Apply implements Fault.
func (f *RAIDRebuild) Apply(tb *testbed.Testbed) error {
	disks := tb.Cfg.ChildrenOfKind(f.Pool, topology.KindDisk)
	if len(disks) == 0 {
		return fmt.Errorf("faults: pool %s has no disks", f.Pool)
	}
	for _, d := range disks {
		tb.SAN.AddDiskUtilization(d, f.Window, f.Intensity, "raid-rebuild")
	}
	return applyAll(tb,
		topology.Event{T: f.Window.Start, Kind: topology.EvRAIDRebuildStart,
			Subject: f.Pool, Detail: "RAID rebuild started"},
		topology.Event{T: f.Window.End, Kind: topology.EvRAIDRebuildDone,
			Subject: f.Pool, Detail: "RAID rebuild completed"})
}

// DiskFailure takes a disk out of service; the survivors absorb its load
// while a rebuild adds background traffic.
type DiskFailure struct {
	Disk   topology.ID
	Window simtime.Interval
	// RebuildIntensity is the extra utilization on surviving disks.
	RebuildIntensity float64
}

// Name implements Fault.
func (f *DiskFailure) Name() string { return "disk-failure" }

// Answer implements Fault: the failure names the disk's pool.
func (f *DiskFailure) Answer(tb *testbed.Testbed) []Cause {
	return []Cause{{symptoms.CauseDiskFailure, string(tb.Cfg.PoolOf(f.Disk))}}
}

// Apply implements Fault.
func (f *DiskFailure) Apply(tb *testbed.Testbed) error {
	pool := tb.Cfg.PoolOf(f.Disk)
	if pool == "" {
		return fmt.Errorf("faults: disk %s has no pool", f.Disk)
	}
	tb.SAN.FailDisk(f.Disk, f.Window, "disk-failure")
	for _, d := range tb.Cfg.ChildrenOfKind(pool, topology.KindDisk) {
		if d == f.Disk {
			continue
		}
		tb.SAN.AddDiskUtilization(d, f.Window, f.RebuildIntensity, "rebuild-after-failure")
	}
	return applyAll(tb,
		topology.Event{T: f.Window.Start, Kind: topology.EvDiskFailed,
			Subject: f.Disk, Detail: "disk failed"},
		topology.Event{T: f.Window.Start.Add(simtime.Minute), Kind: topology.EvRAIDRebuildStart,
			Subject: pool, Detail: "rebuild after disk failure"})
}

// CPUSaturation loads the database server's CPU.
type CPUSaturation struct {
	Server topology.ID
	Window simtime.Interval
	Load   float64 // utilization fraction, e.g. 0.7
}

// Name implements Fault.
func (f *CPUSaturation) Name() string { return "cpu-saturation" }

// Answer implements Fault.
func (f *CPUSaturation) Answer(*testbed.Testbed) []Cause {
	return []Cause{{symptoms.CauseCPUSaturation, string(f.Server)}}
}

// Apply implements Fault.
func (f *CPUSaturation) Apply(tb *testbed.Testbed) error {
	tb.CPULoad.Add("cpu", f.Window, f.Load, "cpu-hog")
	return nil
}

// IndexDrop removes an index mid-simulation, causing a plan regression
// Module PD should attribute.
type IndexDrop struct {
	At    simtime.Time
	Index string
}

// Name implements Fault.
func (f *IndexDrop) Name() string { return "index-drop" }

// Answer implements Fault.
func (f *IndexDrop) Answer(*testbed.Testbed) []Cause {
	return []Cause{{symptoms.CausePlanRegression, f.Index}}
}

// Apply implements Fault.
func (f *IndexDrop) Apply(tb *testbed.Testbed) error {
	tb.Changes = append(tb.Changes, topology.Event{
		T: f.At, Kind: topology.EvIndexDropped, Subject: topology.ID(f.Index),
		Detail: "index dropped by maintenance script",
	})
	return nil
}

// ParamChange alters a configuration parameter mid-simulation.
type ParamChange struct {
	At    simtime.Time
	Param string
	Value float64
}

// Name implements Fault.
func (f *ParamChange) Name() string { return "param-change" }

// Answer implements Fault.
func (f *ParamChange) Answer(*testbed.Testbed) []Cause {
	return []Cause{{symptoms.CausePlanRegression, f.Param}}
}

// Apply implements Fault.
func (f *ParamChange) Apply(tb *testbed.Testbed) error {
	tb.Changes = append(tb.Changes, topology.Event{
		T: f.At, Kind: topology.EvParamChanged, Subject: topology.ID(f.Param), Value: f.Value,
	})
	return nil
}

// applyAll applies changes in order, stopping at the first that fails.
func applyAll(tb *testbed.Testbed, evs ...topology.Event) error {
	for _, ev := range evs {
		if err := tb.Apply(ev); err != nil {
			return err
		}
	}
	return nil
}

// Inject applies a sequence of faults to the testbed.
func Inject(tb *testbed.Testbed, fs ...Fault) error {
	for _, f := range fs {
		if err := f.Apply(tb); err != nil {
			return fmt.Errorf("faults: applying %s: %w", f.Name(), err)
		}
	}
	return nil
}
