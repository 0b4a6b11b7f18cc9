package experiments

import (
	"fmt"
	"slices"

	"diads/internal/dbsys"
	"diads/internal/faults"
	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/workload"
)

// Family is one entry of the fault catalog: a name and the fault it
// injects, built from the fault's onset and the end of the schedule.
type Family struct {
	Name  string
	Fault func(onset, horizon simtime.Time) faults.Fault
}

// Families is the fault catalog every door injects from: one fault of
// each family, at the parameters the batch scenarios use. A family added
// here joins the online, fleet and HTTP test doors and the console's
// -fault screen at once.
var Families = []Family{
	{"san-misconfig", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.SANMisconfiguration{At: onset, Until: horizon, Pool: testbed.PoolP1,
			NewVolume: "vol-Vp", Host: testbed.ServerApp1, ReadIOPS: 450, WriteIOPS: 120}
	}},
	{"external-load", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.ExternalVolumeLoad{LoadName: "wl-v1-heavy", Volume: testbed.VolV3,
			Window: simtime.NewInterval(onset, horizon), ReadIOPS: 450, WriteIOPS: 120, DutyCycle: 1}
	}},
	{"data-property", func(onset, _ simtime.Time) faults.Fault {
		return &faults.DataPropertyChange{At: onset, Table: dbsys.TPartsupp, Factor: 1.8}
	}},
	{"lock-contention", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.TableLockContention{Table: dbsys.TPartsupp, Holds: lockHolds(onset, horizon), Holder: "txn-batch"}
	}},
	{"index-drop", func(onset, _ simtime.Time) faults.Fault {
		return &faults.IndexDrop{At: onset, Index: dbsys.IdxPartsuppPart}
	}},
	{"cpu-saturation", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.CPUSaturation{Server: testbed.ServerDB, Window: simtime.NewInterval(onset, horizon), Load: 0.83}
	}},
	{"disk-failure", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.DiskFailure{Disk: "disk-3", Window: simtime.NewInterval(onset, horizon), RebuildIntensity: 0.45}
	}},
	{"raid-rebuild", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.RAIDRebuild{Pool: testbed.PoolP1, Window: simtime.NewInterval(onset, horizon), Intensity: 0.55}
	}},
	{"param-change", func(onset, _ simtime.Time) faults.Fault {
		return &faults.ParamChange{At: onset, Param: dbsys.ParamEnableIndexScan, Value: 0}
	}},
}

// Variants are the catalog's other entries, which only the batch
// scenarios inject: the bursty V4 load scenarios 2 and 5 add as noise,
// Table 2's burst with heavier writes, and scenario 4's milder DML. The
// burst alone slows no query, so the test doors range over Families.
var Variants = []Family{
	{"v4-burst", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.ExternalVolumeLoad{LoadName: "wl-v2-burst", Volume: testbed.VolV4, Window: simtime.NewInterval(onset, horizon),
			ReadIOPS: 260, WriteIOPS: 120, DutyCycle: 0.35, Period: 10 * simtime.Minute}
	}},
	{"v4-burst-160", func(onset, horizon simtime.Time) faults.Fault {
		return &faults.ExternalVolumeLoad{LoadName: "wl-v2-burst", Volume: testbed.VolV4, Window: simtime.NewInterval(onset, horizon),
			ReadIOPS: 260, WriteIOPS: 160, DutyCycle: 0.35, Period: 10 * simtime.Minute}
	}},
	{"data-property-1.6x", func(onset, _ simtime.Time) faults.Fault {
		return &faults.DataPropertyChange{At: onset, Table: dbsys.TPartsupp, Factor: 1.6}
	}},
}

// InjectFaults builds the Figure 1 testbed on the scenario schedule and
// injects the named catalog entries in order, unsimulated: with one
// name, the fault-injection tool of the paper's footnote 1.
func InjectFaults(seed int64, names ...string) (*testbed.Testbed, []faults.Fault, error) {
	tb, onset, horizon, err := gridTestbed(seed, scenarioRuns, 0)
	if err != nil {
		return nil, nil, err
	}
	all := slices.Concat(Families, Variants)
	injected := make([]faults.Fault, len(names))
	for i, name := range names {
		k := slices.IndexFunc(all, func(f Family) bool { return f.Name == name })
		if k < 0 {
			return nil, nil, fmt.Errorf("experiments: unknown fault %q", name)
		}
		injected[i] = all[k].Fault(onset, horizon)
	}
	return tb, injected, faults.Inject(tb, injected...)
}

// q2Period is the spacing of Q2's runs on every scenario schedule.
const q2Period = 30 * simtime.Minute

// gridTestbed builds the Figure 1 testbed on the Q2 grid every scenario
// door runs on: runs occurrences q2Period apart from offset past 00:10,
// the background loads on until horizon, where the grid ends. The fault
// strikes at onset, five minutes before the first run of the second
// half.
func gridTestbed(seed int64, runs int, offset simtime.Duration) (tb *testbed.Testbed, onset, horizon simtime.Time, err error) {
	start := simtime.Time(10 * simtime.Minute).Add(offset)
	onset = start.Add(simtime.Duration(runs/2)*q2Period - 5*simtime.Minute)
	horizon = start.Add(simtime.Duration(runs) * q2Period)
	if tb, err = testbed.NewFigure1(seed); err != nil {
		return nil, 0, 0, err
	}
	tb.Schedules = []workload.QuerySchedule{{Query: "Q2", Start: start, Period: q2Period, Count: runs}}
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, horizon)
	}
	return tb, onset, horizon, nil
}

// lockHolds builds exclusive-lock windows over the Q2 runs between onset
// and horizon, counted back from horizon, where the grid ends.
func lockHolds(onset, horizon simtime.Time) (holds []simtime.Interval) {
	for i := int(horizon.Sub(onset) / q2Period); i > 0; i-- {
		start := horizon.Add(-simtime.Duration(i) * q2Period)
		holds = append(holds, simtime.NewInterval(start.Add(-30*simtime.Second), start.Add(90*simtime.Second)))
	}
	return holds
}
