// Command faultinject demonstrates the fault injector: it builds the
// Figure 1 testbed, injects the selected fault, simulates the timeline,
// and prints the fault's answer — each root cause a correct diagnosis
// may name, as kind(subject) — then the run history with the fault's
// visible effect: the tool the paper's footnote 1 describes for testing
// and verifying DIADS.
//
// Usage:
//
//	faultinject [-fault misconfig|burst|dml|locks|raid|disk|cpu|indexdrop] [-seed S]
package main

import (
	"flag"
	"fmt"
	"os"

	"diads/internal/dbsys"
	"diads/internal/faults"
	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/workload"
)

func main() {
	fault := flag.String("fault", "misconfig", "fault to inject")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	if err := run(*fault, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "faultinject:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64) error {
	tb, err := testbed.NewFigure1(seed)
	if err != nil {
		return err
	}
	const runs = 12
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: runs},
	}
	horizon := simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(runs)*30*simtime.Minute)
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, horizon)
	}
	//lint:allow readwindow fault onset placement (just before a run), not an evidence read window
	onset := simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(runs/2)*30*simtime.Minute) -
		simtime.Time(5*simtime.Minute)

	var f faults.Fault
	switch name {
	case "misconfig":
		f = &faults.SANMisconfiguration{At: onset, Until: horizon, Pool: testbed.PoolP1,
			NewVolume: "vol-Vp", Host: testbed.ServerApp1, ReadIOPS: 450, WriteIOPS: 120}
	case "burst":
		f = &faults.ExternalVolumeLoad{LoadName: "wl-burst", Volume: testbed.VolV4,
			Window:   simtime.NewInterval(onset, horizon),
			ReadIOPS: 260, WriteIOPS: 120, DutyCycle: 0.35, Period: 10 * simtime.Minute}
	case "dml":
		f = &faults.DataPropertyChange{At: onset, Table: dbsys.TPartsupp, Factor: 1.8}
	case "locks":
		var holds []simtime.Interval
		for i := runs / 2; i < runs; i++ {
			start := simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(i)*30*simtime.Minute)
			holds = append(holds, simtime.NewInterval(start.Add(-30*simtime.Second), start.Add(90)))
		}
		f = &faults.TableLockContention{Table: dbsys.TPartsupp, Holds: holds, Holder: "txn-batch"}
	case "raid":
		f = &faults.RAIDRebuild{Pool: testbed.PoolP1,
			Window: simtime.NewInterval(onset, horizon), Intensity: 0.55}
	case "disk":
		f = &faults.DiskFailure{Disk: "disk-3",
			Window: simtime.NewInterval(onset, horizon), RebuildIntensity: 0.45}
	case "cpu":
		f = &faults.CPUSaturation{Server: testbed.ServerDB,
			Window: simtime.NewInterval(onset, horizon), Load: 0.83}
	case "indexdrop":
		f = &faults.IndexDrop{At: onset, Index: dbsys.IdxPartsuppPart}
	default:
		return fmt.Errorf("unknown fault %q", name)
	}

	if err := faults.Inject(tb, f); err != nil {
		return err
	}
	if err := tb.Simulate(); err != nil {
		return err
	}

	fmt.Printf("injected fault: %s (answer: %v)\n\n", f.Name(), f.Answer(tb))
	fmt.Printf("%-14s %-12s %-10s %-10s\n", "Run", "Start", "Duration", "Plan")
	for _, r := range tb.RunsFor("Q2") {
		fmt.Printf("%-14s %-12s %-10s %-10s\n", r.RunID, r.Start.Clock(), r.Duration(), r.PlanSig[:8])
	}
	fmt.Println("\nconfiguration/system events:")
	for _, ev := range tb.Cfg.Log.All() {
		fmt.Println(" ", ev)
	}
	return nil
}
