package pipeline

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
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

// TestCancellationMidPipeline cancels the context while da (the first
// of the DA, CR pair in topological order) runs; the run must return the
// context error, and the modules after da must never run.
func TestCancellationMidPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	p, err := New("cancelable",
		constModule("co", nil, 1),
		&Module{Name: "da", Deps: []string{"co"}, Run: func(runCtx context.Context, bb *Blackboard) (any, error) {
			cancel()
			<-runCtx.Done()
			return nil, runCtx.Err()
		}},
		constModule("cr", []string{"co"}, 3),
		constModule("sd", []string{"da", "cr"}, 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := p.Run(ctx, NewBlackboard(), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if mt := trace.Module("co"); mt.Status != StatusRan {
		t.Fatalf("co ran before the cancel, got %s", mt.Status)
	}
	if mt := trace.Module("da"); mt.Status != StatusFailed {
		t.Fatalf("da returned the cancellation, got %s", mt.Status)
	}
	for _, name := range []string{"cr", "sd"} {
		if mt := trace.Module(name); mt.Status != StatusNotRun {
			t.Fatalf("%s should never run after cancellation, got %s", name, mt.Status)
		}
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

// TestModuleErrorCancelsSiblingsAndPropagates fails the first of two
// independent modules: the run returns the module's error, and neither
// its sibling nor the module downstream of both runs.
func TestModuleErrorCancelsSiblingsAndPropagates(t *testing.T) {
	boom := errors.New("boom")
	slowRan := false
	p, err := New("failing",
		constModule("a", nil, 1),
		&Module{Name: "bad", Deps: []string{"a"}, Run: func(context.Context, *Blackboard) (any, error) {
			return nil, boom
		}},
		&Module{Name: "slow", Deps: []string{"a"}, Run: func(context.Context, *Blackboard) (any, error) {
			slowRan = true
			return "done", nil
		}},
		constModule("after", []string{"bad", "slow"}, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := p.Run(context.Background(), NewBlackboard(), Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if !strings.Contains(err.Error(), "module bad") {
		t.Fatalf("error should name the failing module: %v", err)
	}
	if slowRan {
		t.Fatal("the failing module's sibling should not run")
	}
	for _, name := range []string{"slow", "after"} {
		if mt := trace.Module(name); mt.Status != StatusNotRun {
			t.Fatalf("%s should not run after the failure, got %s", name, mt.Status)
		}
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

// goroutineID parses the current goroutine's ID off its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(strings.TrimPrefix(string(buf), "goroutine "))[0]
}

// TestRunInlineWhenSingleReady pins the engine's one-goroutine contract:
// every module of a chain and of a diamond runs on the goroutine that
// called Run, in topological order. Halts, errors and cancellation
// mid-run are reported the same way on either shape.
func TestRunInlineWhenSingleReady(t *testing.T) {
	ranOn := map[string]string{}
	mod := func(name string, deps ...string) *Module {
		return &Module{Name: name, Deps: deps, Run: func(context.Context, *Blackboard) (any, error) {
			ranOn[name] = goroutineID()
			return name, nil
		}}
	}

	for _, tc := range []struct {
		name string
		mods []*Module
		want string
	}{
		{"chain", []*Module{mod("a"), mod("b", "a"), mod("c", "b")}, "a,b,c"},
		// Registered out of order: b and c are independent given a.
		{"diamond", []*Module{mod("d", "b", "c"), mod("b", "a"), mod("c", "a"), mod("a")}, "a,b,c,d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			caller := goroutineID() // each subtest calls Run from its own goroutine
			p, err := New(tc.name, tc.mods...)
			if err != nil {
				t.Fatal(err)
			}
			var order []string
			trace, err := p.Run(context.Background(), NewBlackboard(), Options{
				OnStart: func(m string) { order = append(order, m) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(order, ","); got != tc.want {
				t.Errorf("OnStart order %s, want %s", got, tc.want)
			}
			for _, name := range p.ModuleNames() {
				if ranOn[name] != caller {
					t.Errorf("module %s ran on goroutine %s, want the caller's %s", name, ranOn[name], caller)
				}
				if mt := trace.Module(name); mt.Status != StatusRan {
					t.Errorf("module %s trace: %+v", name, mt)
				}
			}
		})
	}

	t.Run("halt", func(t *testing.T) {
		caller := goroutineID() // each subtest calls Run from its own goroutine
		p, err := New("halting",
			&Module{Name: "pd", Run: func(context.Context, *Blackboard) (any, error) {
				ranOn["pd"] = goroutineID()
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
				cancel() // the caller gives up while b runs
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
