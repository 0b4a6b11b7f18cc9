// Package pipeline is the module engine the paper's Figure 2 workflow
// runs on. A pipeline is a set of named modules with explicit dependency
// declarations; New orders them topologically and Run executes them one
// at a time in that order on the caller's goroutine, with context
// cancellation and error propagation at module granularity. Modules
// communicate through a blackboard of named outputs, caching is engine
// middleware (a module with a CacheSpec can be satisfied without
// running), and every run produces a Trace recording per-module wall
// time, cache hits, and skip/short-circuit decisions.
package pipeline

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"diads/internal/telemetry"
)

// Blackboard is the shared result space of one pipeline run: each
// module's output is stored under the module's name. It is safe for
// concurrent use.
type Blackboard struct {
	mu   sync.RWMutex
	vals map[string]any
}

// NewBlackboard returns an empty blackboard.
func NewBlackboard() *Blackboard {
	return &Blackboard{vals: make(map[string]any)}
}

// Put stores a value under a name, replacing any previous value. Drivers
// use it to seed pipeline inputs before a run.
func (b *Blackboard) Put(name string, v any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.vals[name] = v
}

// Has reports whether a value is stored under the name.
func (b *Blackboard) Has(name string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.vals[name]
	return ok
}

func (b *Blackboard) get(name string) (any, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	v, ok := b.vals[name]
	return v, ok
}

// Get returns the value stored under the name, typed. It reports false
// when the name is absent or holds a different type.
func Get[T any](b *Blackboard, name string) (T, bool) {
	v, ok := b.get(name)
	if !ok {
		var zero T
		return zero, false
	}
	t, ok := v.(T)
	return t, ok
}

// Halt is the short-circuit signal: a module returns Halt{Out: v} to
// record v as its output and stop the pipeline — modules not yet started
// are marked skipped and the run completes successfully. The paper's
// Module PD uses it when the plan changed: plan-change analysis is the
// whole diagnosis and the drill-down modules never run.
type Halt struct{ Out any }

// CacheSpec is the engine's caching middleware: before running a module
// the engine derives a key from the blackboard, consults the cache, and
// on a hit installs the cached value as the module's output without
// running it; on a miss the freshly-computed output is stored back. The
// trace records the outcome per module. A cache hit never halts, so a
// module with a CacheSpec must not return Halt.
type CacheSpec struct {
	// Key derives the cache key from the blackboard. ok=false disables
	// caching for this run (e.g. no cache configured on the input).
	Key func(bb *Blackboard) (key string, ok bool)
	// Get and Put bridge to the underlying typed cache.
	Get func(bb *Blackboard, key string) (any, bool)
	Put func(bb *Blackboard, key string, v any)
}

// Module is one node of the DAG.
type Module struct {
	// Name identifies the module and keys its output on the blackboard.
	Name string
	// Deps name the modules whose outputs must exist before Run; they
	// replace hand-rolled "module X requires module Y" precondition
	// checks inside module bodies.
	Deps []string
	// Run computes the module's output from the blackboard. Return
	// Halt{Out: v} to short-circuit the rest of the pipeline.
	Run func(ctx context.Context, bb *Blackboard) (any, error)
	// Cache, when non-nil, lets the engine satisfy the module from a
	// cache instead of running it.
	Cache *CacheSpec
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

// CacheOutcome records whether the caching middleware was consulted.
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
// topological order with status, wall time, and cache outcome. The
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

// Append adds one module entry (the interactive workflow accumulates its
// steps this way).
func (t *Trace) Append(mt ModuleTrace) { t.Modules = append(t.Modules, mt) }

// Pipeline is a validated, topologically-ordered module DAG ready to
// run. Pipelines are immutable after New and safe to share across
// goroutines; all per-run state lives on the Blackboard and Trace.
type Pipeline struct {
	name  string
	mods  []*Module // topological order, registration order among ties
	index map[string]int
	obs   []moduleObs // obs[i]: mods[i]'s telemetry instruments
}

// New validates the modules (unique names, declared dependencies exist,
// no cycles) and returns the pipeline.
func New(name string, mods ...*Module) (*Pipeline, error) {
	if name == "" {
		return nil, fmt.Errorf("pipeline: empty pipeline name")
	}
	if len(mods) == 0 {
		return nil, fmt.Errorf("pipeline %s: no modules", name)
	}
	byName := make(map[string]*Module, len(mods))
	for _, m := range mods {
		if m.Name == "" {
			return nil, fmt.Errorf("pipeline %s: module with empty name", name)
		}
		if m.Run == nil {
			return nil, fmt.Errorf("pipeline %s: module %s has no Run", name, m.Name)
		}
		if _, dup := byName[m.Name]; dup {
			return nil, fmt.Errorf("pipeline %s: duplicate module %s", name, m.Name)
		}
		byName[m.Name] = m
	}
	for _, m := range mods {
		for _, d := range m.Deps {
			if _, ok := byName[d]; !ok {
				return nil, fmt.Errorf("pipeline %s: module %s depends on unknown module %s", name, m.Name, d)
			}
		}
	}
	order, err := toposort(name, mods)
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int, len(order))
	for i, m := range order {
		pos[m.Name] = i
	}
	return &Pipeline{name: name, mods: order, index: pos, obs: make([]moduleObs, len(order))}, nil
}

// toposort is Kahn's algorithm with a stable tie-break: among ready
// modules, registration order wins, so the run order is deterministic.
func toposort(name string, mods []*Module) ([]*Module, error) {
	indeg := make(map[string]int, len(mods))
	for _, m := range mods {
		indeg[m.Name] = len(m.Deps)
	}
	var order []*Module
	done := make(map[string]bool, len(mods))
	for len(order) < len(mods) {
		progressed := false
		for _, m := range mods {
			if done[m.Name] || indeg[m.Name] > 0 {
				continue
			}
			done[m.Name] = true
			order = append(order, m)
			for _, n := range mods {
				for _, d := range n.Deps {
					if d == m.Name {
						indeg[n.Name]--
					}
				}
			}
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("pipeline %s: dependency cycle among modules", name)
		}
	}
	return order, nil
}

// Name returns the pipeline's name.
func (p *Pipeline) Name() string { return p.name }

// ModuleNames returns the module names in topological order.
func (p *Pipeline) ModuleNames() []string {
	out := make([]string, len(p.mods))
	for i, m := range p.mods {
		out[i] = m.Name
	}
	return out
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
func (p *Pipeline) observeModule(i int, status Status, wall time.Duration) {
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

// execOut is the outcome of executing (or cache-satisfying) one module.
type execOut struct {
	halt  bool
	err   error
	wall  time.Duration
	cache CacheOutcome
}

// exec runs one module: cache probe, run, cache fill, blackboard commit.
func (p *Pipeline) exec(ctx context.Context, m *Module, bb *Blackboard) execOut {
	t0 := time.Now()
	o := execOut{}
	key := ""
	if m.Cache != nil {
		if k, ok := m.Cache.Key(bb); ok {
			if v, hit := m.Cache.Get(bb, k); hit {
				bb.Put(m.Name, v)
				o.cache = CacheHit
				o.wall = time.Since(t0)
				return o
			}
			o.cache = CacheMiss
			key = k
		}
	}
	out, err := m.Run(ctx, bb)
	if err != nil {
		o.err = err
		o.wall = time.Since(t0)
		return o
	}
	if h, ok := out.(Halt); ok {
		out, o.halt = h.Out, true
	}
	bb.Put(m.Name, out)
	if o.cache == CacheMiss {
		m.Cache.Put(bb, key, out)
	}
	o.wall = time.Since(t0)
	return o
}

// record turns one module's exec outcome into its trace entry and
// telemetry; a module error comes back wrapped with the module's name.
func (p *Pipeline) record(i int, e execOut) (ModuleTrace, error) {
	mt := ModuleTrace{Module: p.mods[i].Name, Status: StatusRan, Wall: e.wall, Cache: e.cache}
	var err error
	switch {
	case e.err != nil:
		mt.Status, mt.Note = StatusFailed, e.err.Error()
		err = fmt.Errorf("pipeline %s: module %s: %w", p.name, mt.Module, e.err)
	case e.cache == CacheHit:
		mt.Status = StatusCacheHit
	}
	if e.halt {
		mt.Note = "short-circuit"
	}
	p.observeModule(i, mt.Status, mt.Wall)
	return mt, err
}

// RunModule executes a single module against the blackboard — the
// interactive mode, where a driver steps through the DAG one module at a
// time and may edit intermediate outputs between steps. Dependencies are
// enforced from the declarations: a module whose inputs are missing
// fails without running.
func (p *Pipeline) RunModule(ctx context.Context, name string, bb *Blackboard) (ModuleTrace, error) {
	i, ok := p.index[name]
	if !ok {
		return ModuleTrace{}, fmt.Errorf("pipeline %s: unknown module %q", p.name, name)
	}
	m := p.mods[i]
	for _, d := range m.Deps {
		if !bb.Has(d) {
			return ModuleTrace{Module: name, Status: StatusNotRun},
				fmt.Errorf("pipeline %s: module %s requires module %s, which has not run", p.name, name, d)
		}
	}
	if err := ctx.Err(); err != nil {
		return ModuleTrace{Module: name, Status: StatusNotRun},
			fmt.Errorf("pipeline %s: canceled before module %s: %w", p.name, name, err)
	}
	return p.record(i, p.exec(ctx, m, bb))
}

// Options tune one pipeline run.
type Options struct {
	// OnStart, when non-nil, observes each module as its turn comes
	// (tests use it to cancel mid-run deterministically).
	OnStart func(module string)
}

// Run executes the full pipeline on the calling goroutine, one module at
// a time in topological order. A module error or a canceled context ends
// the run, leaving the remaining modules not-run; a Halt short-circuits
// it, marking them skipped. The returned Trace is always non-nil and
// lists every module in topological order.
func (p *Pipeline) Run(ctx context.Context, bb *Blackboard, opts Options) (*Trace, error) {
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
		if opts.OnStart != nil {
			opts.OnStart(m.Name)
		}
		e := p.exec(ctx, m, bb)
		if trace.Modules[i], err = p.record(i, e); err != nil {
			break
		}
		if e.halt {
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
