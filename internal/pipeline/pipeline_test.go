package pipeline

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// state is the tests' per-run state: each module's output under its name.
type state map[string]any

// has reports whether a module's output is in s — RunModule's predicate.
func (s state) has(module string) bool { _, ok := s[module]; return ok }

// constModule returns a module that records v as its output.
func constModule(name string, deps []string, v any) Module[state] {
	return Module[state]{
		Name: name,
		Deps: deps,
		Run: func(_ context.Context, s state) (bool, error) {
			s[name] = v
			return false, nil
		},
	}
}

func TestRunExecutesDAGAndTraces(t *testing.T) {
	p := New("sum",
		constModule("a", nil, 1),
		constModule("b", []string{"a"}, 2),
		Module[state]{Name: "c", Deps: []string{"a", "b"}, Run: func(_ context.Context, s state) (bool, error) {
			s["c"] = s["a"].(int) + s["b"].(int)
			return false, nil
		}},
		Module[state]{Name: "d", Deps: []string{"c"}, Run: func(_ context.Context, s state) (bool, error) {
			s["d"] = s["c"]
			return false, nil
		}},
	)
	s := state{}
	trace, err := p.Run(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s["c"] != 3 || s["d"] != 3 {
		t.Fatalf("c, d = %v, %v, want 3, 3", s["c"], s["d"])
	}
	if trace.Pipeline != "sum" || len(trace.Modules) != 4 {
		t.Fatalf("trace: %+v", trace)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		mt := trace.Module(name)
		if mt == nil || mt.Status != StatusRan {
			t.Fatalf("module %s trace: %+v", name, mt)
		}
	}
}

// TestCancellationMidPipeline cancels the context while da (the first
// of the DA, CR pair in the pipeline's order) runs; the run must return
// the context error, and the modules after da must never run.
func TestCancellationMidPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	p := New("cancelable",
		constModule("co", nil, 1),
		Module[state]{Name: "da", Deps: []string{"co"}, Run: func(runCtx context.Context, _ state) (bool, error) {
			cancel()
			<-runCtx.Done()
			return false, runCtx.Err()
		}},
		constModule("cr", []string{"co"}, 3),
		constModule("sd", []string{"da", "cr"}, 4),
	)
	trace, err := p.Run(ctx, state{}, nil)
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
	p := New("noop", constModule("a", nil, 1))
	trace, err := p.Run(ctx, state{}, nil)
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
	p := New("failing",
		constModule("a", nil, 1),
		Module[state]{Name: "bad", Deps: []string{"a"}, Run: func(context.Context, state) (bool, error) {
			return false, boom
		}},
		Module[state]{Name: "slow", Deps: []string{"a"}, Run: func(context.Context, state) (bool, error) {
			slowRan = true
			return false, nil
		}},
		constModule("after", []string{"bad", "slow"}, 2),
	)
	trace, err := p.Run(context.Background(), state{}, nil)
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
	p := New("shortcircuit",
		Module[state]{Name: "pd", Run: func(_ context.Context, s state) (bool, error) {
			s["pd"] = "plan changed"
			return true, nil
		}},
		constModule("co", []string{"pd"}, 2),
		constModule("ia", []string{"co"}, 3),
	)
	s := state{}
	trace, err := p.Run(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := s["pd"]; v != "plan changed" {
		t.Fatalf("halting module's output should be recorded, got %q", v)
	}
	if s.has("co") || s.has("ia") {
		t.Fatalf("modules after the halt ran: %v", s)
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

// TestInteractiveStepWithEditHook drives the pipeline one module at a
// time and edits an intermediate output between steps — the
// OverrideCOS-style hook — verifying the dependency declarations enforce
// the order.
func TestInteractiveStepWithEditHook(t *testing.T) {
	p := New("interactive",
		constModule("co", nil, []int{1, 2, 3}),
		Module[state]{Name: "da", Deps: []string{"co"}, Run: func(_ context.Context, s state) (bool, error) {
			s["da"] = len(s["co"].([]int))
			return false, nil
		}},
	)
	s := state{}

	// Out-of-order execution fails from the dependency declaration.
	if _, err := p.RunModule(context.Background(), "da", s, s.has); err == nil ||
		!strings.Contains(err.Error(), "requires module co") {
		t.Fatalf("da before co should fail with the dependency, got %v", err)
	}
	if _, err := p.RunModule(context.Background(), "nope", s, s.has); err == nil {
		t.Fatal("unknown module should fail")
	}

	if _, err := p.RunModule(context.Background(), "co", s, s.has); err != nil {
		t.Fatal(err)
	}
	// The administrator prunes the intermediate result before the next step.
	s["co"] = []int{9}
	mt, err := p.RunModule(context.Background(), "da", s, s.has)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Status != StatusRan {
		t.Fatalf("da trace: %+v", mt)
	}
	if n := s["da"]; n != 1 {
		t.Fatalf("da should see the edited COS, got %v", n)
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
// called Run, in registration order. Halts, errors and cancellation
// mid-run are reported the same way on either shape.
func TestRunInlineWhenSingleReady(t *testing.T) {
	ranOn := map[string]string{}
	mod := func(name string, deps ...string) Module[state] {
		return Module[state]{Name: name, Deps: deps, Run: func(context.Context, state) (bool, error) {
			ranOn[name] = goroutineID()
			return false, nil
		}}
	}

	for _, tc := range []struct {
		name string
		mods []Module[state]
		want string
	}{
		{"chain", []Module[state]{mod("a"), mod("b", "a"), mod("c", "b")}, "a,b,c"},
		// b and c are independent given a.
		{"diamond", []Module[state]{mod("a"), mod("b", "a"), mod("c", "a"), mod("d", "b", "c")}, "a,b,c,d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			caller := goroutineID() // each subtest calls Run from its own goroutine
			p := New(tc.name, tc.mods...)
			var order []string
			trace, err := p.Run(context.Background(), state{}, func(m string) { order = append(order, m) })
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(order, ","); got != tc.want {
				t.Errorf("onStart order %s, want %s", got, tc.want)
			}
			for _, m := range tc.mods {
				if ranOn[m.Name] != caller {
					t.Errorf("module %s ran on goroutine %s, want the caller's %s", m.Name, ranOn[m.Name], caller)
				}
				if mt := trace.Module(m.Name); mt.Status != StatusRan {
					t.Errorf("module %s trace: %+v", m.Name, mt)
				}
			}
		})
	}

	t.Run("halt", func(t *testing.T) {
		caller := goroutineID() // each subtest calls Run from its own goroutine
		p := New("halting",
			Module[state]{Name: "pd", Run: func(context.Context, state) (bool, error) {
				ranOn["pd"] = goroutineID()
				return true, nil
			}},
			mod("co", "pd"))
		trace, err := p.Run(context.Background(), state{}, nil)
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
		p := New("failing", mod("a"),
			Module[state]{Name: "bad", Deps: []string{"a"}, Run: func(context.Context, state) (bool, error) {
				return false, boom
			}},
			mod("after", "bad"))
		trace, err := p.Run(context.Background(), state{}, nil)
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
		p := New("canceled", mod("a"),
			Module[state]{Name: "b", Deps: []string{"a"}, Run: func(runCtx context.Context, _ state) (bool, error) {
				cancel() // the caller gives up while b runs
				<-runCtx.Done()
				return false, runCtx.Err()
			}},
			mod("c", "b"))
		trace, err := p.Run(ctx, state{}, nil)
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
