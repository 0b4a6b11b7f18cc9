// Package experiments contains the harnesses that regenerate every table
// and figure of the paper's evaluation (Section 5) plus the ablations and
// extension studies DESIGN.md indexes. Each experiment returns a value
// with the measured results and a Render method producing the same rows
// the paper reports.
package experiments

import (
	"fmt"
	"slices"

	"diads/internal/diag"
	"diads/internal/faults"
	"diads/internal/symptoms"
	"diads/internal/testbed"
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

// scenarioRow is one scenario of Build: its labels and the catalog
// entries it injects as causes and as noise.
type scenarioRow struct {
	title, description, critical string
	causes, noise                []string
}

// scenarioRows holds every scenario Build constructs.
var scenarioRows = map[ScenarioID]scenarioRow{
	S1SANMisconfig: {"SAN misconfiguration causing contention in V1",
		"volume V' carved from P1, zoned and LUN-mapped to another host whose workload contends with V1",
		"SD maps symptoms to the misconfiguration; identified symptoms pinpoint the correct volume",
		[]string{"san-misconfig"}, nil},
	S2TwoPoolContention: {"External contention on both pools; only P1's affects the query",
		"heavy external workload on V3 (P1) plus bursty load on V4 (P2) that barely touches the query",
		"DA prunes the unrelated symptoms and events for volume V2",
		[]string{"external-load"}, []string{"v4-burst"}},
	S3DataPropertyChange: {"SQL DML causes a subtle change in data properties",
		"bulk DML grows partsupp; extra I/O propagates to the SAN as apparent volume contention",
		"CR identifies the record-count symptoms; IA rules out volume contention as root cause",
		[]string{"data-property"}, nil},
	S4ConcurrentDBAndSAN: {"Concurrent DB (data properties) and SAN (misconfiguration) problems",
		"partsupp grows at the same time V' contends with V1",
		"Both problems identified; IA ranks them",
		[]string{"san-misconfig", "data-property-1.6x"}, nil},
	S5LockingWithNoise: {"DB locking problem with spurious volume-contention symptoms",
		"a batch transaction holds exclusive partsupp locks during runs; bursty V4 noise mimics contention",
		"IA identifies volume contention as low impact",
		[]string{"lock-contention"}, []string{"v4-burst"}},
	SPlanRegression: {"Plan regression after an index drop",
		"partsupp_partkey_idx dropped by a maintenance script; the optimizer falls back to scans",
		"PD detects the change and plan-change analysis pinpoints the drop",
		[]string{"index-drop"}, nil},
	SCPUSaturation: {"Database server CPU saturation",
		"a competing process saturates the DB server's CPU",
		"DA correlates server CPU; domain knowledge separates saturation from propagation",
		[]string{"cpu-saturation"}, nil},
	SDiskFailure: {"Disk failure in pool P1",
		"disk-3 fails; survivors absorb its load while the rebuild adds traffic",
		"SD matches the failure event; DA sees the pool's disks degrade",
		[]string{"disk-failure"}, nil},
	SRAIDRebuild: {"RAID rebuild interference in pool P1",
		"a rebuild steals bandwidth from P1's disks",
		"SD matches the rebuild event with its temporal condition",
		[]string{"raid-rebuild"}, nil},
}

// Build constructs, simulates, and labels a scenario.
func Build(id ScenarioID, seed int64) (*Scenario, error) {
	row, ok := scenarioRows[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %d", id)
	}
	return row.build(id, seed)
}

// build injects the row's catalog entries into the scenario testbed,
// causes before noise, resolves each cause's answer, simulates the
// testbed, and labels Q2's runs.
func (row scenarioRow) build(id ScenarioID, seed int64) (*Scenario, error) {
	tb, injected, err := InjectFaults(seed, slices.Concat(row.causes, row.noise)...)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{ID: id, Title: row.title, Description: row.description, CriticalModule: row.critical, Testbed: tb}
	for _, f := range injected[:len(row.causes)] {
		sc.Answers = append(sc.Answers, f.Answer(tb))
	}
	if err := tb.Simulate(); err != nil {
		return nil, err
	}
	runs := tb.RunsFor("Q2")
	sc.Input = &diag.Input{
		Query: "Q2", Runs: runs, Satisfactory: diag.LabelAdaptive(runs, 1.6),
		Store: tb.Store, Cfg: tb.Cfg, Cat: tb.Cat, Opt: tb.Opt,
		Params: tb.Params, Stats: tb.Stats, Server: testbed.ServerDB,
		SymDB: symptoms.Builtin(),
	}
	return sc, nil
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
