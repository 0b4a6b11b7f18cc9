package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// constModule returns a module that records its output under its name.
func constModule(name string, deps []string, v any) *Module {
	return &Module{
		Name: name,
		Deps: deps,
		Run: func(ctx context.Context, bb *Blackboard) (any, error) {
			return v, nil
		},
	}
}

func TestTopologicalOrderIsDeterministic(t *testing.T) {
	// Diamond: a -> {b, c} -> d, registered out of order.
	p, err := New("diamond",
		constModule("d", []string{"b", "c"}, 4),
		constModule("b", []string{"a"}, 2),
		constModule("c", []string{"a"}, 3),
		constModule("a", nil, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(p.ModuleNames(), ",")
	// Registration order breaks ties: b before c (both ready after a).
	if got != "a,b,c,d" {
		t.Fatalf("topological order: got %s", got)
	}
}

func TestValidationRejectsBadDAGs(t *testing.T) {
	if _, err := New("cycle",
		&Module{Name: "a", Deps: []string{"b"}, Run: func(context.Context, *Blackboard) (any, error) { return nil, nil }},
		&Module{Name: "b", Deps: []string{"a"}, Run: func(context.Context, *Blackboard) (any, error) { return nil, nil }},
	); err == nil {
		t.Fatal("cycle should be rejected")
	}
	if _, err := New("dangling",
		&Module{Name: "a", Deps: []string{"ghost"}, Run: func(context.Context, *Blackboard) (any, error) { return nil, nil }},
	); err == nil {
		t.Fatal("unknown dependency should be rejected")
	}
	if _, err := New("dup",
		constModule("a", nil, 1), constModule("a", nil, 2),
	); err == nil {
		t.Fatal("duplicate module should be rejected")
	}
	if _, err := New("empty"); err == nil {
		t.Fatal("empty pipeline should be rejected")
	}
}

func TestRunExecutesDAGAndTraces(t *testing.T) {
	p, err := New("sum",
		constModule("a", nil, 1),
		constModule("b", []string{"a"}, 2),
		&Module{Name: "c", Deps: []string{"a", "b"}, Run: func(ctx context.Context, bb *Blackboard) (any, error) {
			a, _ := Get[int](bb, "a")
			b, _ := Get[int](bb, "b")
			return a + b, nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	bb := NewBlackboard()
	trace, err := p.Run(context.Background(), bb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum, _ := Get[int](bb, "c"); sum != 3 {
		t.Fatalf("c = %d, want 3", sum)
	}
	for _, name := range []string{"a", "b", "c"} {
		mt := trace.Module(name)
		if mt == nil || mt.Status != StatusRan {
			t.Fatalf("module %s trace: %+v", name, mt)
		}
	}
}

// TestIndependentModulesRunConcurrently proves DA-style parallelism: two
// modules that both wait for the other to start can only complete if the
// scheduler runs them at the same time.
func TestIndependentModulesRunConcurrently(t *testing.T) {
	bStarted := make(chan struct{})
	cStarted := make(chan struct{})
	meet := func(mine, other chan struct{}) (any, error) {
		close(mine)
		select {
		case <-other:
			return "met", nil
		case <-time.After(5 * time.Second):
			return nil, errors.New("peer never started: modules did not run concurrently")
		}
	}
	p, err := New("parallel",
		constModule("a", nil, 1),
		&Module{Name: "b", Deps: []string{"a"}, Run: func(context.Context, *Blackboard) (any, error) {
			return meet(bStarted, cStarted)
		}},
		&Module{Name: "c", Deps: []string{"a"}, Run: func(context.Context, *Blackboard) (any, error) {
			return meet(cStarted, bStarted)
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), NewBlackboard(), Options{MaxParallel: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestCancellationMidPipeline cancels the context while two independent
// modules (the DA ∥ CR shape) are in flight; the run must return the
// context error and the trace must show the downstream module never ran.
func TestCancellationMidPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	inFlight := 0
	block := func(runCtx context.Context, bb *Blackboard) (any, error) {
		mu.Lock()
		inFlight++
		if inFlight == 2 {
			cancel() // both DA and CR are now mid-flight
		}
		mu.Unlock()
		<-runCtx.Done()
		return nil, runCtx.Err()
	}
	p, err := New("cancelable",
		constModule("co", nil, 1),
		&Module{Name: "da", Deps: []string{"co"}, Run: block},
		&Module{Name: "cr", Deps: []string{"co"}, Run: block},
		constModule("sd", []string{"da", "cr"}, 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := p.Run(ctx, NewBlackboard(), Options{MaxParallel: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if mt := trace.Module("sd"); mt.Status != StatusNotRun {
		t.Fatalf("sd should never run after cancellation, got %s", mt.Status)
	}
	if mt := trace.Module("co"); mt.Status != StatusRan {
		t.Fatalf("co ran before the cancel, got %s", mt.Status)
	}
}

// TestPreCanceledContextRunsNothing mirrors the old workflow's behavior:
// a context canceled before Run starts no modules at all.
func TestPreCanceledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := New("noop", constModule("a", nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	trace, err := p.Run(ctx, NewBlackboard(), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if mt := trace.Module("a"); mt.Status != StatusNotRun {
		t.Fatalf("a should not run, got %s", mt.Status)
	}
}

func TestModuleErrorCancelsSiblingsAndPropagates(t *testing.T) {
	boom := errors.New("boom")
	siblingCanceled := false
	p, err := New("failing",
		constModule("a", nil, 1),
		&Module{Name: "bad", Deps: []string{"a"}, Run: func(context.Context, *Blackboard) (any, error) {
			return nil, boom
		}},
		&Module{Name: "slow", Deps: []string{"a"}, Run: func(ctx context.Context, bb *Blackboard) (any, error) {
			select {
			case <-ctx.Done():
				siblingCanceled = true
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return "done", nil
			}
		}},
		constModule("after", []string{"bad", "slow"}, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := p.Run(context.Background(), NewBlackboard(), Options{MaxParallel: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if !strings.Contains(err.Error(), "module bad") {
		t.Fatalf("error should name the failing module: %v", err)
	}
	if !siblingCanceled {
		t.Fatal("in-flight sibling should see the cancellation")
	}
	if mt := trace.Module("after"); mt.Status != StatusNotRun {
		t.Fatalf("downstream of failure should not run, got %s", mt.Status)
	}
}

func TestHaltShortCircuitsDownstream(t *testing.T) {
	p, err := New("shortcircuit",
		&Module{Name: "pd", Run: func(context.Context, *Blackboard) (any, error) {
			return Halt{Out: "plan changed"}, nil
		}},
		constModule("co", []string{"pd"}, 2),
		constModule("ia", []string{"co"}, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	bb := NewBlackboard()
	trace, err := p.Run(context.Background(), bb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := Get[string](bb, "pd"); v != "plan changed" {
		t.Fatalf("halting module's output should be recorded, got %q", v)
	}
	if mt := trace.Module("pd"); mt.Status != StatusRan || mt.Note != "short-circuit" {
		t.Fatalf("pd trace: %+v", mt)
	}
	for _, name := range []string{"co", "ia"} {
		mt := trace.Module(name)
		if mt.Status != StatusSkipped || !strings.Contains(mt.Note, "pd") {
			t.Fatalf("%s should be skipped with the short-circuit origin, got %+v", name, mt)
		}
	}
}

func TestCacheMiddlewareHitAndMiss(t *testing.T) {
	store := map[string]any{}
	runs := 0
	m := &Module{
		Name: "apg",
		Run: func(context.Context, *Blackboard) (any, error) {
			runs++
			return "built", nil
		},
		Cache: &CacheSpec{
			Key: func(bb *Blackboard) (string, bool) { return "plan-sig", true },
			Get: func(bb *Blackboard, key string) (any, bool) { v, ok := store[key]; return v, ok },
			Put: func(bb *Blackboard, key string, v any) { store[key] = v },
		},
	}
	p, err := New("cached", m)
	if err != nil {
		t.Fatal(err)
	}

	trace1, err := p.Run(context.Background(), NewBlackboard(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mt := trace1.Module("apg"); mt.Status != StatusRan || mt.Cache != CacheMiss {
		t.Fatalf("first run should miss: %+v", mt)
	}

	bb2 := NewBlackboard()
	trace2, err := p.Run(context.Background(), bb2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mt := trace2.Module("apg"); mt.Status != StatusCacheHit || mt.Cache != CacheHit {
		t.Fatalf("second run should hit: %+v", mt)
	}
	if v, _ := Get[string](bb2, "apg"); v != "built" {
		t.Fatalf("cache hit should install the output, got %q", v)
	}
	if runs != 1 {
		t.Fatalf("module ran %d times, want 1", runs)
	}
}

// TestCachedHaltStillShortCircuits checks that a halting module's
// outcome survives the cache: a later run satisfied from the cache must
// short-circuit exactly as the original run did.
func TestCachedHaltStillShortCircuits(t *testing.T) {
	store := map[string]any{}
	p, err := New("cached-halt",
		&Module{
			Name: "pd",
			Run: func(context.Context, *Blackboard) (any, error) {
				return Halt{Out: "plan changed"}, nil
			},
			Cache: &CacheSpec{
				Key: func(bb *Blackboard) (string, bool) { return "sig", true },
				Get: func(bb *Blackboard, key string) (any, bool) { v, ok := store[key]; return v, ok },
				Put: func(bb *Blackboard, key string, v any) { store[key] = v },
			},
		},
		constModule("co", []string{"pd"}, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), NewBlackboard(), Options{}); err != nil {
		t.Fatal(err)
	}

	bb2 := NewBlackboard()
	trace, err := p.Run(context.Background(), bb2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mt := trace.Module("pd"); mt.Status != StatusCacheHit {
		t.Fatalf("pd should be cache-satisfied, got %+v", mt)
	}
	if v, _ := Get[string](bb2, "pd"); v != "plan changed" {
		t.Fatalf("cache hit should install the unwrapped output, got %q", v)
	}
	if mt := trace.Module("co"); mt.Status != StatusSkipped {
		t.Fatalf("cached halt must still short-circuit downstream, got %+v", mt)
	}
}

// TestInteractiveStepWithEditHook drives the DAG one module at a time
// and edits an intermediate output between steps — the OverrideCOS-style
// hook — verifying dependency enforcement replaces precondition checks.
func TestInteractiveStepWithEditHook(t *testing.T) {
	p, err := New("interactive",
		constModule("co", nil, []int{1, 2, 3}),
		&Module{Name: "da", Deps: []string{"co"}, Run: func(ctx context.Context, bb *Blackboard) (any, error) {
			cos, _ := Get[[]int](bb, "co")
			return len(cos), nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	bb := NewBlackboard()

	// Out-of-order execution fails from the dependency declaration.
	if _, err := p.RunModule(context.Background(), "da", bb); err == nil ||
		!strings.Contains(err.Error(), "requires module co") {
		t.Fatalf("da before co should fail with the dependency, got %v", err)
	}
	if _, err := p.RunModule(context.Background(), "nope", bb); err == nil {
		t.Fatal("unknown module should fail")
	}

	if _, err := p.RunModule(context.Background(), "co", bb); err != nil {
		t.Fatal(err)
	}
	// The administrator prunes the intermediate result before the next step.
	bb.Put("co", []int{9})
	mt, err := p.RunModule(context.Background(), "da", bb)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Status != StatusRan {
		t.Fatalf("da trace: %+v", mt)
	}
	if n, _ := Get[int](bb, "da"); n != 1 {
		t.Fatalf("da should see the edited COS, got %d", n)
	}
}

func TestSequentialOptionNeverOverlaps(t *testing.T) {
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	mod := func(name string, deps []string) *Module {
		return &Module{Name: name, Deps: deps, Run: func(context.Context, *Blackboard) (any, error) {
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return name, nil
		}}
	}
	p, err := New("seq", mod("a", nil), mod("b", []string{"a"}), mod("c", []string{"a"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), NewBlackboard(), Options{MaxParallel: 1}); err != nil {
		t.Fatal(err)
	}
	if maxInFlight != 1 {
		t.Fatalf("sequential engine overlapped modules: max in flight %d", maxInFlight)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"diads", "san-only"} {
		p, err := New(name, constModule("m", nil, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(r.Names()); got != "[diads san-only]" {
		t.Fatalf("names: %s", got)
	}
	if _, ok := r.Get("diads"); !ok {
		t.Fatal("diads should be registered")
	}
	if _, ok := r.Get("ghost"); ok {
		t.Fatal("ghost should not resolve")
	}
	dup, err := New("diads", constModule("m", nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register(dup); err == nil {
		t.Fatal("duplicate registration should fail")
	}
}

// goroutineID parses the current goroutine's ID off its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(strings.TrimPrefix(string(buf), "goroutine "))[0]
}

// TestRunInlineWhenSingleReady pins the scheduling rule: a module that is
// the only one ready while nothing is in flight runs on the goroutine that
// called Run, and the scheduler fans out only when two or more are ready.
// Everything else observable — OnStart order, trace, halt/skip notes,
// errors, mid-flight cancellation — does not depend on which path ran.
func TestRunInlineWhenSingleReady(t *testing.T) {
	var mu sync.Mutex
	ranOn := map[string]string{}
	record := func(name string) {
		mu.Lock()
		ranOn[name] = goroutineID()
		mu.Unlock()
	}
	mod := func(name string, deps ...string) *Module {
		return &Module{Name: name, Deps: deps, Run: func(context.Context, *Blackboard) (any, error) {
			record(name)
			return name, nil
		}}
	}

	t.Run("chain", func(t *testing.T) {
		caller := goroutineID() // each subtest calls Run from its own goroutine
		p, err := New("chain", mod("a"), mod("b", "a"), mod("c", "b"))
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		trace, err := p.Run(context.Background(), NewBlackboard(), Options{
			MaxParallel: 4,
			OnStart:     func(m string) { order = append(order, m) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b", "c"} {
			if ranOn[name] != caller {
				t.Errorf("chain module %s ran on goroutine %s, want the caller's %s", name, ranOn[name], caller)
			}
			if mt := trace.Module(name); mt.Status != StatusRan {
				t.Errorf("chain module %s trace: %+v", name, mt)
			}
		}
		if got := strings.Join(order, ","); got != "a,b,c" {
			t.Errorf("OnStart order %s, want a,b,c", got)
		}
	})

	t.Run("diamond", func(t *testing.T) {
		caller := goroutineID() // each subtest calls Run from its own goroutine
		// b and c each wait for the other to start: they finish only if
		// the scheduler overlaps them. a and d are alone when ready.
		bStarted, cStarted := make(chan struct{}), make(chan struct{})
		meet := func(name string, mine, other chan struct{}) *Module {
			return &Module{Name: name, Deps: []string{"a"}, Run: func(context.Context, *Blackboard) (any, error) {
				record(name)
				close(mine)
				select {
				case <-other:
					return name, nil
				case <-time.After(5 * time.Second):
					return nil, errors.New("peer never started: the diamond's middle did not overlap")
				}
			}}
		}
		p, err := New("diamond", mod("a"), meet("b", bStarted, cStarted), meet("c", cStarted, bStarted), mod("d", "b", "c"))
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		if _, err := p.Run(context.Background(), NewBlackboard(), Options{
			OnStart: func(m string) { order = append(order, m) },
		}); err != nil {
			t.Fatal(err)
		}
		if ranOn["a"] != caller || ranOn["d"] != caller {
			t.Errorf("a ran on %s and d on %s, want both on the caller's %s", ranOn["a"], ranOn["d"], caller)
		}
		if ranOn["b"] == caller || ranOn["c"] == caller || ranOn["b"] == ranOn["c"] {
			t.Errorf("b ran on %s and c on %s: want two goroutines, neither the caller's %s", ranOn["b"], ranOn["c"], caller)
		}
		if got := strings.Join(order, ","); got != "a,b,c,d" {
			t.Errorf("OnStart order %s, want a,b,c,d", got)
		}
	})

	t.Run("halt", func(t *testing.T) {
		caller := goroutineID() // each subtest calls Run from its own goroutine
		p, err := New("halting",
			&Module{Name: "pd", Run: func(context.Context, *Blackboard) (any, error) {
				record("pd")
				return Halt{Out: "changed"}, nil
			}},
			mod("co", "pd"))
		if err != nil {
			t.Fatal(err)
		}
		trace, err := p.Run(context.Background(), NewBlackboard(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ranOn["pd"] != caller {
			t.Errorf("pd ran on %s, want the caller's %s", ranOn["pd"], caller)
		}
		if mt := trace.Module("pd"); mt.Status != StatusRan || mt.Note != "short-circuit" {
			t.Errorf("pd trace: %+v", mt)
		}
		if mt := trace.Module("co"); mt.Status != StatusSkipped || mt.Note != "short-circuited by pd" {
			t.Errorf("co trace: %+v", mt)
		}
	})

	t.Run("error", func(t *testing.T) {
		boom := errors.New("boom")
		p, err := New("failing", mod("a"),
			&Module{Name: "bad", Deps: []string{"a"}, Run: func(context.Context, *Blackboard) (any, error) { return nil, boom }},
			mod("after", "bad"))
		if err != nil {
			t.Fatal(err)
		}
		trace, err := p.Run(context.Background(), NewBlackboard(), Options{})
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "pipeline failing: module bad") {
			t.Fatalf("want boom naming the module, got %v", err)
		}
		if mt := trace.Module("bad"); mt.Status != StatusFailed || mt.Note != "boom" {
			t.Errorf("bad trace: %+v", mt)
		}
		if mt := trace.Module("after"); mt.Status != StatusNotRun {
			t.Errorf("after trace: %+v", mt)
		}
	})

	t.Run("cancel mid-flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p, err := New("canceled", mod("a"),
			&Module{Name: "b", Deps: []string{"a"}, Run: func(runCtx context.Context, _ *Blackboard) (any, error) {
				cancel() // the caller gives up while the inline module runs
				<-runCtx.Done()
				return nil, runCtx.Err()
			}},
			mod("c", "b"))
		if err != nil {
			t.Fatal(err)
		}
		trace, err := p.Run(ctx, NewBlackboard(), Options{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if mt := trace.Module("a"); mt.Status != StatusRan {
			t.Errorf("a trace: %+v", mt)
		}
		if mt := trace.Module("b"); mt.Status != StatusFailed {
			t.Errorf("b trace: %+v", mt)
		}
		if mt := trace.Module("c"); mt.Status != StatusNotRun {
			t.Errorf("c trace: %+v", mt)
		}
	})
}
