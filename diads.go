// Package diads is an open-source reproduction of "Why Did My Query Slow
// Down?" (Borisov, Babu, Uttamchandani, Routray, Singh — CIDR 2009): an
// integrated database + SAN diagnosis tool built around two ideas.
//
// The Annotated Plan Graph (APG) ties every operator of a query's
// execution plan through its tablespace to the SAN volume it reads, and on
// through the fabric to pools and physical disks, annotating each
// component with the monitoring data collected during the plan's
// execution.
//
// The diagnosis workflow drills down from the query to plans (Module PD),
// operators (Module CO), components (Module DA), and record counts
// (Module CR), maps symptoms to root causes through a weighted
// symptoms database (Module SD), and rolls back up with impact analysis
// (Module IA).
//
// Because the paper's testbed (PostgreSQL on a production IBM SAN) is not
// reproducible on a laptop, the library ships a faithful simulation
// substrate: a SAN configuration and performance model, a cost-based
// query engine over a TPC-H catalog, a noisy monitoring pipeline, and a
// fault injector covering the paper's scenario menu.
//
// Quickstart:
//
//	sc, _ := diads.BuildScenario(diads.ScenarioSANMisconfig, 42)
//	res, _ := diads.Diagnose(sc.Input)
//	fmt.Println(res.Render())
//
// See examples/ for complete programs and DESIGN.md for the system map.
package diads

import (
	"diads/internal/apg"
	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/experiments"
	"diads/internal/fleet"
	"diads/internal/monitor"
	"diads/internal/pipeline"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
)

// Core diagnosis types.
type (
	// Input is everything a diagnosis consumes: labeled runs, the
	// monitoring store, and configuration state.
	Input = diag.Input
	// Result is a complete diagnosis.
	Result = diag.Result
	// Workflow runs modules one at a time (the interactive mode).
	Workflow = diag.Workflow
	// Trace is a pipeline run's per-module execution record: wall time
	// and skip/short-circuit decisions.
	Trace = pipeline.Trace
	// ModuleTrace is one module's entry in a Trace.
	ModuleTrace = pipeline.ModuleTrace
	// APG is the Annotated Plan Graph.
	APG = apg.APG
	// RunRecord is the monitoring record of one query run.
	RunRecord = exec.RunRecord
	// Testbed is the simulated database+SAN environment.
	Testbed = testbed.Testbed
	// SymptomsDB is the root-cause knowledge base.
	SymptomsDB = symptoms.DB
	// CauseInstance is one evaluated root-cause hypothesis.
	CauseInstance = symptoms.CauseInstance
	// Scenario is a constructed, simulated, labeled problem scenario.
	Scenario = experiments.Scenario
	// ScenarioID selects a scenario.
	ScenarioID = experiments.ScenarioID
	// SymptomMiner proposes codebook entries from confirmed incidents
	// (Section 7's self-evolving symptoms database).
	SymptomMiner = symptoms.Miner
	// SymptomCandidate is one proposed codebook entry awaiting
	// validation and review.
	SymptomCandidate = symptoms.CandidateEntry
	// SymptomValidator replays candidates against healthy-period fact
	// bases and held-out confirmed incidents before they may install.
	SymptomValidator = symptoms.Validator
	// SymptomValidation is a candidate's typed validation report with
	// per-condition reasons.
	SymptomValidation = symptoms.Validation

	// Monitor is the online detection front-end: it ingests completed
	// runs (attach Observe to a testbed engine's OnRunComplete hook),
	// maintains incremental per-query baselines, and holds the
	// SlowdownEvents it detects until Release is called with a metric
	// watermark that covers their evidence windows.
	Monitor = monitor.Monitor
	// MonitorConfig tunes online detection.
	MonitorConfig = monitor.Config
	// SlowdownEvent is one detected degradation, self-contained enough
	// to diagnose.
	SlowdownEvent = monitor.SlowdownEvent
	// EventGate defers slowdown events until the monitoring watermark
	// covers their evidence window. Every Monitor holds its detections
	// in one (Monitor.Release); a caller that wants the events delivered
	// to a gate of its own points Monitor.SetSink at its Add.
	EventGate = monitor.Gate
	// Service is the concurrent diagnosis engine: a bounded worker pool
	// behind a bounded queue (Submit waits for space rather than drop a
	// detection) with per-(query, window) dedup and a ranked incident
	// registry; each diagnosis reads only its own inputs.
	Service = service.Service
	// ServiceConfig tunes the worker pool.
	ServiceConfig = service.Config
	// ServiceEnv is the read-only diagnosis environment jobs share.
	ServiceEnv = service.Env
	// Incident is one open problem in the results registry.
	Incident = service.Incident
	// OnlineResult is the outcome of the end-to-end online scenario.
	OnlineResult = experiments.OnlineResult

	// SimTime is a simulation timestamp in seconds since the epoch.
	SimTime = simtime.Time
	// SimDuration is a span of simulated time in seconds.
	SimDuration = simtime.Duration
)

// Scenario identifiers: the paper's five Table 1 settings plus the
// extension scenarios.
const (
	ScenarioSANMisconfig     = experiments.S1SANMisconfig
	ScenarioTwoPools         = experiments.S2TwoPoolContention
	ScenarioDataProperty     = experiments.S3DataPropertyChange
	ScenarioConcurrentFaults = experiments.S4ConcurrentDBAndSAN
	ScenarioLockingNoise     = experiments.S5LockingWithNoise
	ScenarioPlanRegression   = experiments.SPlanRegression
	ScenarioCPUSaturation    = experiments.SCPUSaturation
	ScenarioDiskFailure      = experiments.SDiskFailure
	ScenarioRAIDRebuild      = experiments.SRAIDRebuild
)

// NewTestbed builds the paper's Figure 1 environment: the TPC-H database on volumes V1/V2 behind an FC fabric,
// Q2 scheduled every 30 minutes.
func NewTestbed(seed int64) (*Testbed, error) {
	return testbed.NewFigure1(seed)
}

// BuildScenario constructs, simulates, and labels one of the canonical
// problem scenarios.
func BuildScenario(id ScenarioID, seed int64) (*Scenario, error) {
	return experiments.Build(id, seed)
}

// Diagnose runs the full batch workflow of Figure 2 through the module
// engine, one module at a time in the workflow's order; the Result
// carries the per-module Trace.
func Diagnose(in *Input) (*Result, error) {
	return diag.Diagnose(in)
}

// NewWorkflow prepares an interactive workflow over the input.
func NewWorkflow(in *Input) (*Workflow, error) {
	return diag.NewWorkflow(in)
}

// BuildAPG constructs the Annotated Plan Graph for a run's plan in the
// testbed's environment.
func BuildAPG(tb *Testbed, run *RunRecord) (*APG, error) {
	return apg.Build(run.Plan, tb.Cfg, tb.Cat, testbed.ServerDB)
}

// NewMonitor returns an online slowdown monitor. Wire it into a testbed
// with tb.Engine.OnRunComplete = m.Observe before simulating, and at
// each SimulateStream chunk boundary submit what m.Release(now) returns
// (Service.SubmitAll).
func NewMonitor(cfg MonitorConfig) *Monitor { return monitor.New(cfg) }

// NewService returns a concurrent diagnosis service over the
// environment. Call Start, SubmitAll what the monitor releases, and read
// ranked incidents from Registry.
func NewService(env ServiceEnv, cfg ServiceConfig) *Service { return service.New(env, cfg) }

// ServiceEnvFromTestbed assembles the service's diagnosis environment
// from a testbed, with the built-in symptoms database.
func ServiceEnvFromTestbed(tb *Testbed) ServiceEnv { return fleet.EnvOf(tb, symptoms.Builtin()) }

// RunOnlineScenario streams the multi-query online scenario end to end:
// monitor, worker-pool service, injected SAN misconfiguration, ranked
// incidents.
func RunOnlineScenario(seed int64) (*OnlineResult, error) { return experiments.Online(seed) }

// BuiltinSymptomsDB returns the in-house symptoms database for query
// slowdowns.
func BuiltinSymptomsDB() *SymptomsDB { return symptoms.Builtin() }

// ParseSymptomsDB reads a symptoms database from the administrator-
// editable text format.
func ParseSymptomsDB(src string) (*SymptomsDB, error) { return symptoms.Parse(src) }
