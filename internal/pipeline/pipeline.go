// Package pipeline is the timed module loop the paper's Figure 2
// workflow runs on. A pipeline is a fixed list of named modules over one
// per-run state S, written in dependency order; Run executes them one at
// a time in that order on the caller's goroutine, with context
// cancellation and error propagation at module granularity. Each module
// reads its inputs from S and writes its output into S; the engine only
// times it, records its outcome, and stops the run on an error, a
// cancellation or a halt. Every run produces a Trace recording
// per-module wall time, cache outcome, and skip/short-circuit decisions.
package pipeline

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"diads/internal/telemetry"
)

// Module is one step of the workflow.
type Module[S any] struct {
	// Name identifies the module in traces and telemetry.
	Name string
	// Deps name the modules whose outputs must exist before an
	// interactive RunModule; a batch Run relies on the registration order.
	Deps []string
	// Run computes the module's output into s. halt short-circuits the
	// rest of the pipeline; cache reports whether the module consulted a
	// cache and what it found.
	Run func(ctx context.Context, s S) (halt bool, cache CacheOutcome, err error)
}

// Status classifies a module's outcome within one run.
type Status string

const (
	// StatusRan: the module executed and produced its output.
	StatusRan Status = "ran"
	// StatusCacheHit: the output came from the module's cache.
	StatusCacheHit Status = "hit"
	// StatusSkipped: an upstream module short-circuited the pipeline.
	StatusSkipped Status = "skipped"
	// StatusFailed: the module returned an error.
	StatusFailed Status = "failed"
	// StatusNotRun: the run ended (error or cancellation) before the
	// module's turn.
	StatusNotRun Status = "not-run"
)

// CacheOutcome records whether a module consulted its cache.
type CacheOutcome string

const (
	CacheNone CacheOutcome = ""
	CacheHit  CacheOutcome = "hit"
	CacheMiss CacheOutcome = "miss"
)

// ModuleTrace is one module's entry in a run's trace.
type ModuleTrace struct {
	Module string
	Status Status
	Cache  CacheOutcome
	// Wall is the module's measured wall time (zero when never started).
	Wall time.Duration
	// Note carries the skip reason, short-circuit marker, or error text.
	Note string
}

// Trace is the observability record of one pipeline run: modules in
// registration order with status, wall time, and cache outcome. The
// online service threads it through incidents and the console renders it
// as the workflow-timing panel.
type Trace struct {
	Pipeline string
	// TraceID, when set, ties this run to the slowdown event it
	// diagnoses: the monitor mints the ID, diag.Input carries it in, and
	// the service records the run's module walls as spans under it.
	TraceID string
	Total   time.Duration
	Modules []ModuleTrace
}

// Module returns the trace entry for the named module, or nil.
func (t *Trace) Module(name string) *ModuleTrace {
	for i := range t.Modules {
		if t.Modules[i].Module == name {
			return &t.Modules[i]
		}
	}
	return nil
}

// Pipeline is a fixed module list ready to run. Pipelines are immutable
// after New and safe to share across goroutines; all per-run state lives
// in S and the Trace.
type Pipeline[S any] struct {
	name string
	mods []Module[S]
	obs  []moduleObs // obs[i]: mods[i]'s telemetry instruments
}

// New returns the pipeline that runs mods in the order given.
func New[S any](name string, mods ...Module[S]) *Pipeline[S] {
	return &Pipeline[S]{name: name, mods: mods, obs: make([]moduleObs, len(mods))}
}

// moduleObs holds one module's telemetry instruments: a wall-time
// histogram and an outcome counter per status, each resolved from the
// registry on its first use and reused afterwards, so a diagnosis builds
// no label maps and does no registry lookup per module. Resolution stays
// lazy because a series is registered — and scraped — only once it has
// been observed.
type moduleObs struct {
	wall     atomic.Pointer[telemetry.Histogram]
	outcomes [len(statuses)]atomic.Pointer[telemetry.Counter]
}

// statuses indexes moduleObs.outcomes.
var statuses = [...]Status{StatusRan, StatusCacheHit, StatusSkipped, StatusFailed, StatusNotRun}

// observeModule records one module outcome into the process-wide
// telemetry registry: a wall-time histogram and an outcome counter per
// (pipeline, module). Recording at the engine means both execution paths
// — batch runs and interactive steps — land in the same series without
// per-driver bookkeeping. Pure side channel: nothing in
// a Trace or a Result reads these instruments back.
func (p *Pipeline[S]) observeModule(i int, status Status, wall time.Duration) {
	o, module := &p.obs[i], p.mods[i].Name
	h := o.wall.Load()
	if h == nil {
		h = telemetry.Default().Histogram("diads_module_wall_seconds",
			"Per-module wall time of diagnosis pipeline runs.",
			telemetry.Labels{"pipeline": p.name, "module": module}, nil)
		o.wall.Store(h)
	}
	h.Observe(wall.Seconds())
	s := slices.Index(statuses[:], status)
	c := o.outcomes[s].Load()
	if c == nil {
		c = telemetry.Default().Counter("diads_module_outcomes_total",
			"Module outcomes (ran, hit, skipped, failed, not-run) per pipeline.",
			telemetry.Labels{"pipeline": p.name, "module": module, "status": string(status)})
		o.outcomes[s].Store(c)
	}
	c.Inc()
}

// exec runs module i on s and turns its outcome into its trace entry and
// telemetry; a module error comes back wrapped with the module's name.
func (p *Pipeline[S]) exec(ctx context.Context, i int, s S) (ModuleTrace, bool, error) {
	t0 := time.Now()
	halt, cache, err := p.mods[i].Run(ctx, s)
	mt := ModuleTrace{Module: p.mods[i].Name, Status: StatusRan, Wall: time.Since(t0), Cache: cache}
	switch {
	case err != nil:
		mt.Status, mt.Note, halt = StatusFailed, err.Error(), false
		err = fmt.Errorf("pipeline %s: module %s: %w", p.name, mt.Module, err)
	case cache == CacheHit:
		mt.Status = StatusCacheHit
	}
	if halt {
		mt.Note = "short-circuit"
	}
	p.observeModule(i, mt.Status, mt.Wall)
	return mt, halt, err
}

// RunModule executes a single module on s — the interactive mode, where
// a driver steps through the workflow one module at a time and may edit
// intermediate outputs between steps. ran reports whether a module's
// output is already in s: a module whose dependencies have not run fails
// without running.
func (p *Pipeline[S]) RunModule(ctx context.Context, name string, s S, ran func(module string) bool) (ModuleTrace, error) {
	i := slices.IndexFunc(p.mods, func(m Module[S]) bool { return m.Name == name })
	if i < 0 {
		return ModuleTrace{}, fmt.Errorf("pipeline %s: unknown module %q", p.name, name)
	}
	for _, d := range p.mods[i].Deps {
		if !ran(d) {
			return ModuleTrace{Module: name, Status: StatusNotRun},
				fmt.Errorf("pipeline %s: module %s requires module %s, which has not run", p.name, name, d)
		}
	}
	if err := ctx.Err(); err != nil {
		return ModuleTrace{Module: name, Status: StatusNotRun},
			fmt.Errorf("pipeline %s: canceled before module %s: %w", p.name, name, err)
	}
	mt, _, err := p.exec(ctx, i, s)
	return mt, err
}

// Run executes the full pipeline on the calling goroutine, one module at
// a time in registration order; onStart, when non-nil, observes each
// module as its turn comes (tests use it to cancel mid-run
// deterministically). A module error or a canceled context ends the run,
// leaving the remaining modules not-run; a halt short-circuits it,
// marking them skipped. The returned Trace is always non-nil and lists
// every module in registration order.
func (p *Pipeline[S]) Run(ctx context.Context, s S, onStart func(module string)) (*Trace, error) {
	t0 := time.Now()
	trace := &Trace{Pipeline: p.name, Modules: make([]ModuleTrace, len(p.mods))}
	for i, m := range p.mods {
		trace.Modules[i] = ModuleTrace{Module: m.Name, Status: StatusNotRun}
	}
	var err error
	for i, m := range p.mods {
		if ctx.Err() != nil {
			break
		}
		if onStart != nil {
			onStart(m.Name)
		}
		var halt bool
		if trace.Modules[i], halt, err = p.exec(ctx, i, s); err != nil {
			break
		}
		if halt {
			for j := i + 1; j < len(p.mods); j++ {
				trace.Modules[j].Status = StatusSkipped
				trace.Modules[j].Note = "short-circuited by " + m.Name
				p.observeModule(j, StatusSkipped, 0)
			}
			break
		}
	}
	trace.Total = time.Since(t0)
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("pipeline %s: canceled: %w", p.name, ctx.Err())
	}
	return trace, err
}
