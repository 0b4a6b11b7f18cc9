// Package experiments contains the harnesses that regenerate every table
// and figure of the paper's evaluation (Section 5) plus the ablations and
// extension studies DESIGN.md indexes. Each experiment returns a value
// with the measured results and a Render method producing the same rows
// the paper reports.
package experiments

import (
	"fmt"
	"slices"

	"diads/internal/dbsys"
	"diads/internal/diag"
	"diads/internal/faults"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
	"diads/internal/workload"
)

// ScenarioID identifies one experimental scenario.
type ScenarioID int

// The paper's five Table 1 scenarios plus the extension scenarios this
// reproduction adds.
const (
	S1SANMisconfig ScenarioID = iota + 1
	S2TwoPoolContention
	S3DataPropertyChange
	S4ConcurrentDBAndSAN
	S5LockingWithNoise
	SPlanRegression
	SCPUSaturation
	SDiskFailure
	SRAIDRebuild
)

// scenarioRuns is the schedule length used by the scenarios.
const scenarioRuns = 16

// Scenario is one constructed, simulated, and labeled problem scenario.
type Scenario struct {
	ID          ScenarioID
	Title       string
	Description string
	Testbed     *testbed.Testbed
	Input       *diag.Input
	// Answers holds one answer per fault the scenario injects as a
	// cause, resolved by Fault.Answer; faults injected as noise have
	// none. Scenario 4's two concurrent causes must both be identified.
	Answers [][]faults.Cause
	// CriticalModule names the module the paper highlights for the
	// scenario (Table 1's right column).
	CriticalModule string
}

// scheduleHorizon returns the end of the default scenario schedule.
func scheduleHorizon() simtime.Time {
	return simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(scenarioRuns)*30*simtime.Minute)
}

// faultOnset returns the scenario fault onset: just before the second
// half of the schedule.
func faultOnset() simtime.Time {
	//lint:allow readwindow fault onset placement (just before a run), not an evidence read window
	return simtime.Time(10*simtime.Minute) +
		simtime.Time(simtime.Duration(scenarioRuns/2)*30*simtime.Minute) -
		simtime.Time(5*simtime.Minute)
}

// newScenarioTestbed builds the Figure 1 testbed with the scenario
// schedule.
func newScenarioTestbed(seed int64) (*testbed.Testbed, error) {
	tb, err := testbed.NewFigure1(seed)
	if err != nil {
		return nil, err
	}
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: scenarioRuns},
	}
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, scheduleHorizon())
	}
	return tb, nil
}

// lockHolds builds exclusive-lock windows overlapping the second-half
// runs.
func lockHolds() []simtime.Interval {
	var holds []simtime.Interval
	for i := scenarioRuns / 2; i < scenarioRuns; i++ {
		start := simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(i)*30*simtime.Minute)
		holds = append(holds, simtime.NewInterval(start.Add(-30*simtime.Second), start.Add(90)))
	}
	return holds
}

// sanMisconfig is the paper's scenario 1 fault: V' carved from pool P1
// and loaded from another host.
func sanMisconfig(onset, horizon simtime.Time) *faults.SANMisconfiguration {
	return &faults.SANMisconfiguration{
		At: onset, Until: horizon, Pool: testbed.PoolP1,
		NewVolume: "vol-Vp", Host: testbed.ServerApp1,
		ReadIOPS: 450, WriteIOPS: 120,
	}
}

// Build constructs, simulates, and labels a scenario.
func Build(id ScenarioID, seed int64) (*Scenario, error) {
	tb, err := newScenarioTestbed(seed)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{ID: id, Testbed: tb}
	onset, horizon := faultOnset(), scheduleHorizon()

	v2Burst := &faults.ExternalVolumeLoad{
		LoadName: "wl-v2-burst", Volume: testbed.VolV4,
		Window:   simtime.NewInterval(onset, horizon),
		ReadIOPS: 260, WriteIOPS: 120, DutyCycle: 0.35, Period: 10 * simtime.Minute,
	}

	var causes, noise []faults.Fault
	switch id {
	case S1SANMisconfig:
		sc.Title = "SAN misconfiguration causing contention in V1"
		sc.Description = "volume V' carved from P1, zoned and LUN-mapped to another host whose workload contends with V1"
		sc.CriticalModule = "SD maps symptoms to the misconfiguration; identified symptoms pinpoint the correct volume"
		causes = []faults.Fault{sanMisconfig(onset, horizon)}
	case S2TwoPoolContention:
		sc.Title = "External contention on both pools; only P1's affects the query"
		sc.Description = "heavy external workload on V3 (P1) plus bursty load on V4 (P2) that barely touches the query"
		sc.CriticalModule = "DA prunes the unrelated symptoms and events for volume V2"
		causes = []faults.Fault{&faults.ExternalVolumeLoad{
			LoadName: "wl-v1-heavy", Volume: testbed.VolV3,
			Window:   simtime.NewInterval(onset, horizon),
			ReadIOPS: 450, WriteIOPS: 120, DutyCycle: 1,
		}}
		noise = []faults.Fault{v2Burst}
	case S3DataPropertyChange:
		sc.Title = "SQL DML causes a subtle change in data properties"
		sc.Description = "bulk DML grows partsupp; extra I/O propagates to the SAN as apparent volume contention"
		sc.CriticalModule = "CR identifies the record-count symptoms; IA rules out volume contention as root cause"
		causes = []faults.Fault{&faults.DataPropertyChange{At: onset, Table: dbsys.TPartsupp, Factor: 1.8}}
	case S4ConcurrentDBAndSAN:
		sc.Title = "Concurrent DB (data properties) and SAN (misconfiguration) problems"
		sc.Description = "partsupp grows at the same time V' contends with V1"
		sc.CriticalModule = "Both problems identified; IA ranks them"
		causes = []faults.Fault{sanMisconfig(onset, horizon),
			&faults.DataPropertyChange{At: onset, Table: dbsys.TPartsupp, Factor: 1.6}}
	case S5LockingWithNoise:
		sc.Title = "DB locking problem with spurious volume-contention symptoms"
		sc.Description = "a batch transaction holds exclusive partsupp locks during runs; bursty V4 noise mimics contention"
		sc.CriticalModule = "IA identifies volume contention as low impact"
		causes = []faults.Fault{&faults.TableLockContention{Table: dbsys.TPartsupp, Holds: lockHolds(), Holder: "txn-batch"}}
		noise = []faults.Fault{v2Burst}
	case SPlanRegression:
		sc.Title = "Plan regression after an index drop"
		sc.Description = "partsupp_partkey_idx dropped by a maintenance script; the optimizer falls back to scans"
		sc.CriticalModule = "PD detects the change and plan-change analysis pinpoints the drop"
		causes = []faults.Fault{&faults.IndexDrop{At: onset, Index: dbsys.IdxPartsuppPart}}
	case SCPUSaturation:
		sc.Title = "Database server CPU saturation"
		sc.Description = "a competing process saturates the DB server's CPU"
		sc.CriticalModule = "DA correlates server CPU; domain knowledge separates saturation from propagation"
		causes = []faults.Fault{&faults.CPUSaturation{
			Server: testbed.ServerDB,
			Window: simtime.NewInterval(onset, horizon), Load: 0.83,
		}}
	case SDiskFailure:
		sc.Title = "Disk failure in pool P1"
		sc.Description = "disk-3 fails; survivors absorb its load while the rebuild adds traffic"
		sc.CriticalModule = "SD matches the failure event; DA sees the pool's disks degrade"
		causes = []faults.Fault{&faults.DiskFailure{
			Disk: "disk-3", Window: simtime.NewInterval(onset, horizon), RebuildIntensity: 0.45,
		}}
	case SRAIDRebuild:
		sc.Title = "RAID rebuild interference in pool P1"
		sc.Description = "a rebuild steals bandwidth from P1's disks"
		sc.CriticalModule = "SD matches the rebuild event with its temporal condition"
		causes = []faults.Fault{&faults.RAIDRebuild{
			Pool: testbed.PoolP1, Window: simtime.NewInterval(onset, horizon), Intensity: 0.55,
		}}
	default:
		return nil, fmt.Errorf("experiments: unknown scenario %d", id)
	}
	if err := sc.simulate(causes, noise); err != nil {
		return nil, err
	}
	return sc, nil
}

// simulate injects the scenario's faults, causes before noise, resolves
// each cause's answer, simulates the testbed, and labels Q2's runs.
func (sc *Scenario) simulate(causes, noise []faults.Fault) error {
	tb := sc.Testbed
	if err := faults.Inject(tb, append(causes, noise...)...); err != nil {
		return err
	}
	for _, f := range causes {
		sc.Answers = append(sc.Answers, f.Answer(tb))
	}
	if err := tb.Simulate(); err != nil {
		return err
	}
	runs := tb.RunsFor("Q2")
	sc.Input = &diag.Input{
		Query: "Q2", Runs: runs, Satisfactory: diag.LabelAdaptive(runs, 1.6),
		Store: tb.Store, Cfg: tb.Cfg, Cat: tb.Cat, Opt: tb.Opt,
		Params: tb.Params, Stats: tb.Stats, Server: testbed.ServerDB,
		SymDB: symptoms.Builtin(),
	}
	return nil
}

// Diagnose runs the workflow on the scenario and reports whether the top
// cause matches the ground truth.
func (sc *Scenario) Diagnose() (*diag.Result, bool, error) {
	res, err := diag.Diagnose(sc.Input)
	if err != nil {
		return nil, false, err
	}
	return res, sc.Correct(res), nil
}

// Correct reports whether the diagnosis is right: its root cause is in
// the scenario's answer, or, with concurrent causes (scenario 4), each
// one is identified with high confidence and Module IA ranks them.
func (sc *Scenario) Correct(res *diag.Result) bool {
	if len(sc.Answers) > 1 {
		for _, ans := range sc.Answers {
			if !hasHighCause(res, ans) {
				return false
			}
		}
		return true
	}
	top, ok := res.RootCause()
	return ok && Named(top.Cause.Kind, top.Cause.Subject, sc.Answers...)
}

// Named is the one correctness check of every harness and test: a cause
// a diagnosis or an incident names is right if it is in the answer
// (faults.Fault.Answer) of one of the faults injected as causes.
func Named(kind, subject string, answers ...[]faults.Cause) bool {
	for _, ans := range answers {
		if slices.Contains(ans, faults.Cause{Kind: kind, Subject: subject}) {
			return true
		}
	}
	return false
}

// hasHighCause reports whether the diagnosis names a cause in the answer
// at high confidence.
func hasHighCause(res *diag.Result, answer []faults.Cause) bool {
	for _, c := range res.Causes {
		if c.Category == symptoms.High && Named(c.Kind, c.Subject, answer) {
			return true
		}
	}
	return false
}
