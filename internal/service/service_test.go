package service

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"diads/internal/diag"
	"diads/internal/faults"
	"diads/internal/monitor"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
	"diads/internal/testbed"
	"diads/internal/workload"
)

// slowdownRig simulates the scenario-1 testbed (SAN misconfiguration
// degrading Q2) through a monitor and returns the environment plus the
// emitted events.
func slowdownRig(t *testing.T, seed int64) (Env, []monitor.SlowdownEvent, []faults.Cause) {
	t.Helper()
	tb, err := testbed.NewFigure1(seed)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 16
	start := simtime.Time(10 * simtime.Minute)
	horizon := start.Add(runs * 30 * simtime.Minute)
	onset := start.Add(runs/2*30*simtime.Minute - 5*simtime.Minute)
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: start, Period: 30 * simtime.Minute, Count: runs},
	}
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, horizon)
	}
	fault := &faults.SANMisconfiguration{
		At: onset, Until: horizon, Pool: testbed.PoolP1,
		NewVolume: "vol-Vp", Host: testbed.ServerApp1,
		ReadIOPS: 450, WriteIOPS: 120,
	}
	if err := faults.Inject(tb, fault); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(monitor.Config{})
	tb.Engine.OnRunComplete = mon.Observe
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	evs := mon.Release(tb.Horizon.End)
	if len(evs) == 0 {
		t.Fatal("monitor emitted no events for an injected fault")
	}
	return Env{
		Store: tb.Store, Cfg: tb.Cfg, Cat: tb.Cat, Opt: tb.Opt,
		Params: tb.Params, Stats: tb.Stats, Server: testbed.ServerDB,
		SymDB: symptoms.Builtin(),
	}, evs, fault.Answer(tb)
}

func TestServiceDiagnosesEventsConcurrently(t *testing.T) {
	env, evs, answer := slowdownRig(t, 42)
	svc := New(env, Config{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	for _, ev := range evs {
		if err := svc.Submit(ev); err != nil {
			t.Fatalf("submit %s: %v", ev.RunID, err)
		}
	}
	svc.Wait()
	svc.Stop()

	st := svc.Stats()
	if st.Completed != int64(len(evs)) || st.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", st.Completed, st.Failed, len(evs))
	}
	incs := svc.Registry().Incidents()
	if len(incs) == 0 {
		t.Fatal("no incidents registered")
	}
	top := incs[0]
	if !slices.Contains(answer, faults.Cause{Kind: top.Kind, Subject: top.Subject}) {
		t.Errorf("top incident = %s(%s), want one of the fault's answer %v", top.Kind, top.Subject, answer)
	}
	if top.Events != len(evs) {
		t.Errorf("top incident aggregated %d events, want %d", top.Events, len(evs))
	}
	if top.EstImpact() <= 0 {
		t.Errorf("estimated impact = %.2f, want > 0", top.EstImpact())
	}

	// Every diagnosis ran through the DAG engine: the incident carries a
	// per-module trace, and the service aggregated module stats. Each
	// diagnosis built its own APG, same plan or not.
	if top.Result.Trace == nil || top.Result.Trace.Module("da") == nil {
		t.Fatalf("incident should carry the workflow trace, got %+v", top.Result.Trace)
	}
	mods := svc.ModuleStats()
	if len(mods) == 0 {
		t.Fatal("service recorded no module stats")
	}
	byName := map[string]ModuleStat{}
	for _, m := range mods {
		byName[m.Module] = m
	}
	for _, name := range []string{"apg", "ia"} {
		if got := byName[name].Runs; got != int64(len(evs)) {
			t.Errorf("module %s ran %d times, want %d", name, got, len(evs))
		}
	}
}

// TestServiceCapturesLowConfidenceFactBases pins the OnHealthy hook:
// a diagnosis that identifies nothing (no plan change, no cause above
// low confidence) hands its fact base over as healthy-period evidence,
// while confident diagnoses never do.
func TestServiceCapturesLowConfidenceFactBases(t *testing.T) {
	env, evs, _ := slowdownRig(t, 44)

	run := func(env Env) ([]*symptoms.FactBase, Stats) {
		svc := New(env, Config{Workers: 2})
		var mu sync.Mutex
		var healthy []*symptoms.FactBase
		svc.OnHealthy = func(_ monitor.SlowdownEvent, fb *symptoms.FactBase) {
			mu.Lock()
			defer mu.Unlock()
			healthy = append(healthy, fb)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		svc.Start(ctx)
		for _, ev := range evs {
			if err := svc.Submit(ev); err != nil {
				t.Fatalf("submit %s: %v", ev.RunID, err)
			}
		}
		svc.Wait()
		svc.Stop()
		return healthy, svc.Stats()
	}

	// With the built-in database the fault diagnoses confidently:
	// nothing is healthy-period evidence.
	healthy, st := run(env)
	if len(healthy) != 0 {
		t.Fatalf("confident diagnoses must not be captured as healthy, got %d", len(healthy))
	}
	if st.Completed != int64(len(evs)) {
		t.Fatalf("completed=%d, want %d", st.Completed, len(evs))
	}

	// With an empty database every diagnosis stays below low
	// confidence: each completed diagnosis's facts reach the hook.
	empty := env
	empty.SymDB = symptoms.NewDB()
	healthy, st = run(empty)
	if int64(len(healthy)) != st.Completed || st.Completed == 0 {
		t.Fatalf("captured %d healthy bases from %d low-confidence diagnoses",
			len(healthy), st.Completed)
	}
	for _, fb := range healthy {
		if fb == nil || fb.Len() == 0 {
			t.Fatal("captured fact base is empty")
		}
	}
}

// waitForFloor polls until Floor(instance) reads want, which a Submit
// reserving its key makes it read, failing the test after 10 s.
func waitForFloor(t *testing.T, svc *Service, instance string, want simtime.Time) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if floor, ok := svc.Floor(instance); ok && floor == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Floor(%q) never read %v", instance, want)
		}
	}
}

// TestSubmitDeduplicatesAndExertsBackpressure pins admission into a
// full queue: the submitter waits until a worker takes a job, and while
// it waits its key dedups and Floor covers it. A Submit after Stop is
// refused and counted rejected, so every Submit lands in one outcome.
func TestSubmitDeduplicatesAndExertsBackpressure(t *testing.T) {
	env, evs, _ := slowdownRig(t, 43)
	ev := evs[0]

	// No workers started: jobs stay queued, so duplicates and the wait
	// for space are observable deterministically.
	svc := New(env, Config{Workers: 1, Queue: 1})
	if err := svc.Submit(ev); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if err := svc.Submit(ev); err != ErrDuplicate {
		t.Errorf("duplicate submit = %v, want ErrDuplicate", err)
	}
	other := ev
	other.ReadWindow = simtime.NewInterval(ev.ReadWindow.Start.Add(-simtime.Minute), ev.ReadWindow.End)
	waited := make(chan error, 1)
	go func() { waited <- svc.Submit(other) }()
	waitForFloor(t, svc, "", other.ReadWindow.Start)
	if err := svc.Submit(other); err != ErrDuplicate {
		t.Errorf("submit of a waiting key = %v, want ErrDuplicate", err)
	}
	select {
	case err := <-waited:
		t.Fatalf("submit into a full queue returned %v before any worker started", err)
	default:
	}
	if st := svc.Stats(); st.Deduped != 2 || st.Rejected != 0 || st.QueueDepth != 1 {
		t.Errorf("deduped=%d rejected=%d depth=%d, want 2/0/1", st.Deduped, st.Rejected, st.QueueDepth)
	}

	// Once a worker takes the queued job, the waiting submit enqueues;
	// after the queue drains, the same window is no longer pending, so a
	// re-submit is diagnosed again and counts as a recurrence.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	if err := <-waited; err != nil {
		t.Fatalf("waiting submit = %v, want nil once a worker took a job", err)
	}
	svc.Wait()
	if err := svc.Submit(ev); err != nil {
		t.Errorf("re-submit of a diagnosed window = %v, want nil", err)
	}
	svc.Stop()
	if err := svc.Submit(ev); err != ErrStopped {
		t.Errorf("submit after stop = %v, want ErrStopped", err)
	}
	st := svc.Stats()
	if st.Completed != 3 || st.Deduped != 2 || st.Rejected != 1 ||
		st.Submitted != st.Completed+st.Failed+st.Deduped+st.Rejected {
		t.Errorf("%+v, want 3 completed, 2 deduped, 1 rejected, every submit counted once", st)
	}
	events := 0
	for _, inc := range svc.Registry().Incidents() {
		events += inc.Events
	}
	if events != 3 {
		t.Errorf("events = %d, want 3 (two diagnoses + a re-diagnosed recurrence)", events)
	}
}

// TestServiceKeepsOnlyIncidentResults pins what a serving node retains
// of its diagnoses: the registry's latest Result per incident, and no
// other. The test holds each Result only through a weak pointer, so after
// a collection a Result is alive only if the service still references it.
func TestServiceKeepsOnlyIncidentResults(t *testing.T) {
	env, evs, _ := slowdownRig(t, 42)
	svc := New(env, Config{Workers: 2})
	var mu sync.Mutex
	var held []weak.Pointer[diag.Result]
	svc.OnDiagnosis = func(_ monitor.SlowdownEvent, res *diag.Result) {
		mu.Lock()
		defer mu.Unlock()
		held = append(held, weak.Make(res))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	if err := svc.SubmitAll(evs); err != nil {
		t.Fatal(err)
	}
	svc.Wait()
	svc.Stop()
	if len(held) != len(evs) {
		t.Fatalf("diagnosed %d of %d events", len(held), len(evs))
	}

	incs := svc.Registry().Incidents()
	latest := make(map[weak.Pointer[diag.Result]]bool, len(incs))
	for _, inc := range incs {
		latest[weak.Make(inc.Result)] = true
	}
	incs = nil // the copies' Result fields must not pin the diagnoses
	runtime.GC()
	alive, stale := 0, 0
	for _, w := range held {
		if w.Value() != nil {
			alive++
			if !latest[w] {
				stale++
			}
		}
	}
	if alive != len(latest) || stale != 0 {
		t.Errorf("%d of %d diagnoses reachable (%d no incident's latest), want %d: one per incident",
			alive, len(held), stale, len(latest))
	}
	runtime.KeepAlive(svc)
}

// TestResubmissionIsDiagnosedAsRecurrence pins a re-submission of a
// window whose diagnosis has finished: Submit accepts it, the service
// diagnoses it again, and the registry files it as a recurrence of the
// same incident — one more event, its extra time added, its latest
// figures moved — whose cause and report do not change. A re-submission
// whose diagnosis names no cause files nothing.
func TestResubmissionIsDiagnosedAsRecurrence(t *testing.T) {
	env, evs, _ := slowdownRig(t, 45)
	var mu sync.Mutex
	rendered := map[simtime.Interval]string{} // each read window's first report
	diagnose := func(env Env) *Service {
		svc := New(env, Config{Workers: 2})
		svc.OnDiagnosis = func(ev monitor.SlowdownEvent, res *diag.Result) {
			mu.Lock()
			defer mu.Unlock()
			if _, ok := rendered[ev.ReadWindow]; !ok {
				rendered[ev.ReadWindow] = res.Render()
			}
		}
		svc.Start(context.Background())
		t.Cleanup(svc.Stop)
		if err := svc.SubmitAll(evs); err != nil {
			t.Fatal(err)
		}
		svc.Wait()
		return svc
	}

	svc := diagnose(env)
	incs := svc.Registry().Incidents()
	if len(incs) != 1 {
		t.Fatalf("%d incidents, want 1", len(incs))
	}
	before := incs[0]
	// The earliest window recurs, later than anything seen so far.
	again := evs[0]
	again.At = before.LastSeen.Add(simtime.Minute)
	again.Window = simtime.NewInterval(again.At, again.At.Add(simtime.Minute))
	if err := svc.Submit(again); err != nil {
		t.Fatalf("re-submit of a diagnosed window = %v, want nil", err)
	}
	svc.Wait()
	incs = svc.Registry().Incidents()
	if len(incs) != 1 {
		t.Fatalf("%d incidents after the recurrence, want 1", len(incs))
	}
	after := incs[0]
	if after.Kind != before.Kind || after.Subject != before.Subject {
		t.Errorf("recurrence filed under %s(%s), want %s(%s)", after.Kind, after.Subject, before.Kind, before.Subject)
	}
	if after.Events != before.Events+1 {
		t.Errorf("events = %d, want %d", after.Events, before.Events+1)
	}
	if extra := again.Duration - again.Baseline; after.TotalExtra != before.TotalExtra+extra {
		t.Errorf("total extra = %v, want %v", after.TotalExtra, before.TotalExtra+extra)
	}
	if after.LastSeen != again.At || after.Window != again.Window {
		t.Errorf("latest = %v %v, want the recurrence's %v %v", after.LastSeen, after.Window, again.At, again.Window)
	}
	if after.Result == before.Result {
		t.Error("the recurrence's diagnosis did not become the incident's latest")
	}
	if got, want := after.Result.Render(), rendered[again.ReadWindow]; got != want {
		t.Errorf("re-diagnosis reports\n%s\nwant the window's first report\n%s", got, want)
	}
	if st := svc.Stats(); st.Completed != int64(len(evs))+1 || st.Deduped != 0 {
		t.Errorf("completed=%d deduped=%d, want %d/0", st.Completed, st.Deduped, len(evs)+1)
	}

	// With an empty database no diagnosis names a cause.
	empty := env
	empty.SymDB = symptoms.NewDB()
	svc = diagnose(empty)
	if err := svc.Submit(evs[0]); err != nil {
		t.Fatalf("re-submit of a causeless job = %v, want nil", err)
	}
	svc.Wait()
	if st := svc.Stats(); st.Completed != int64(len(evs))+1 {
		t.Errorf("completed=%d, want %d", st.Completed, len(evs)+1)
	}
	if n := svc.Registry().Len(); n != 0 {
		t.Errorf("%d incidents filed from causeless diagnoses", n)
	}
}

// TestSubmitDedupKeyUsesExactWindowBounds pins the dedup key to the
// event's exact simtime read-window bounds (regression for the key
// converting bounds to a separate float64 representation): events whose
// read windows differ by any amount — even sub-second — are distinct
// jobs, and only a bit-for-bit identical window dedups.
func TestSubmitDedupKeyUsesExactWindowBounds(t *testing.T) {
	env, evs, _ := slowdownRig(t, 47)
	ev := evs[0]

	// No workers started: jobs stay queued, so dedup is observable
	// deterministically.
	svc := New(env, Config{Workers: 1, Queue: 8})
	if err := svc.Submit(ev); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	shifted := ev
	shifted.ReadWindow.End = shifted.ReadWindow.End.Add(simtime.Duration(1e-3))
	if err := svc.Submit(shifted); err != nil {
		t.Fatalf("a sub-second window shift must be a distinct job, got %v", err)
	}
	if err := svc.Submit(shifted); err != ErrDuplicate {
		t.Errorf("bit-identical window must dedup, got %v", err)
	}
	if st := svc.Stats(); st.Submitted != 3 || st.Deduped != 1 {
		t.Errorf("submitted=%d deduped=%d, want 3/1", st.Submitted, st.Deduped)
	}
}

func TestServiceContextCancelStopsWorkers(t *testing.T) {
	env, evs, _ := slowdownRig(t, 44)
	svc := New(env, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	svc.Start(ctx)
	for _, ev := range evs {
		_ = svc.Submit(ev)
	}
	cancel()
	svc.Stop() // must return despite canceled workers

	// Cancellation abandons queued jobs, so Wait must not hang on them
	// and further Submits must be refused.
	done := make(chan struct{})
	go func() { svc.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait deadlocked on jobs abandoned by cancellation")
	}
	if err := svc.Submit(evs[0]); err != ErrStopped {
		t.Errorf("submit after cancel = %v, want ErrStopped", err)
	}
}

// TestCancelSettlesEveryOutcome pins the outcome accounting of a
// canceled pool: with one job running, one queued and one Submit waiting
// for space, cancellation refuses the waiting Submit and abandons the
// queued job (both counted rejected), Wait returns at once, and the
// running job still settles, so every Submit lands in exactly one
// outcome.
func TestCancelSettlesEveryOutcome(t *testing.T) {
	env, evs, _ := slowdownRig(t, 44)
	svc := New(env, Config{Workers: 1, Queue: 1})
	entered, release := make(chan struct{}), make(chan struct{})
	svc.OnDiagnosis = func(monitor.SlowdownEvent, *diag.Result) {
		entered <- struct{}{}
		<-release
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	// Each job reads from a second earlier than the last, so Floor shows
	// when the latest one is pending.
	job := func(i int) monitor.SlowdownEvent {
		ev := evs[0]
		ev.ReadWindow.Start = ev.ReadWindow.Start.Add(-simtime.Duration(i))
		return ev
	}
	if err := svc.Submit(job(0)); err != nil {
		t.Fatal(err)
	}
	<-entered // job 0 is running, held before it settles
	if err := svc.Submit(job(1)); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- svc.Submit(job(2)) }()
	waitForFloor(t, svc, "", job(2).ReadWindow.Start)

	cancel()
	if err := <-waited; err != ErrStopped {
		t.Errorf("submit waiting at cancel = %v, want ErrStopped", err)
	}
	done := make(chan struct{})
	go func() { svc.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait blocked on jobs abandoned by cancellation")
	}
	close(release)
	svc.Stop()
	st := svc.Stats()
	if st.Submitted != 3 || st.Completed != 1 || st.Rejected != 2 ||
		st.Submitted != st.Completed+st.Failed+st.Deduped+st.Rejected {
		t.Errorf("%+v, want 3 submitted: 1 completed, 2 rejected", st)
	}
}

// TestSubmitStopRaceDoesNotPanic races Submits against Stop: every
// Submit returns, and every one lands in exactly one outcome.
func TestSubmitStopRaceDoesNotPanic(t *testing.T) {
	env, evs, _ := slowdownRig(t, 45)
	for round := 0; round < 20; round++ {
		svc := New(env, Config{Workers: 1})
		ctx, cancel := context.WithCancel(context.Background())
		svc.Start(ctx)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ev := range evs {
				ev.ReadWindow.End = ev.ReadWindow.End.Add(simtime.Duration(i)) // distinct keys
				_ = svc.Submit(ev)                                             // nil, or ErrStopped once Stop began
			}
		}()
		svc.Stop()
		wg.Wait()
		cancel()
		if st := svc.Stats(); st.Submitted != st.Completed+st.Failed+st.Deduped+st.Rejected {
			t.Fatalf("round %d: %+v: a Submit landed in no outcome", round, st)
		}
	}
}

// TestRegistryRankingDeterministicTies pins the ranking's total order:
// incidents with equal estimated impact and recency must sort by the
// stable (instance, query, kind, subject) identity, never by map or
// completion order — fleet-level grouping is built on this.
func TestRegistryRankingDeterministicTies(t *testing.T) {
	mk := func(instance, query, kind, subject string) (*diag.Result, monitor.SlowdownEvent) {
		ci := symptoms.CauseInstance{Kind: kind, Subject: subject, Confidence: 90, Category: symptoms.High}
		res := &diag.Result{
			Query:  query,
			PD:     &diag.PDResult{},
			Causes: []symptoms.CauseInstance{ci},
			IA:     &diag.IAResult{Items: []diag.ImpactItem{{Cause: ci, Score: 50}}},
		}
		ev := monitor.SlowdownEvent{
			Instance: instance, Query: query, RunID: "r", At: 100,
			Duration: 120, Baseline: 60,
			Window: simtime.NewInterval(0, 100),
		}
		return res, ev
	}
	// Four incidents with identical impact (60s extra × 50%) and
	// identical LastSeen, differing only in identity fields.
	type rec struct{ instance, query, kind, subject string }
	recs := []rec{
		{"inst-1", "Q2", "cause-a", "vol-V1"},
		{"inst-0", "Q2", "cause-a", "vol-V2"},
		{"inst-0", "Q2", "cause-a", "vol-V1"},
		{"inst-0", "Q2", "cause-b", "vol-V1"},
	}
	want := []rec{
		{"inst-0", "Q2", "cause-a", "vol-V1"},
		{"inst-0", "Q2", "cause-a", "vol-V2"},
		{"inst-0", "Q2", "cause-b", "vol-V1"},
		{"inst-1", "Q2", "cause-a", "vol-V1"},
	}
	// Record in several insertion orders; the ranking must not move.
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
		reg := NewRegistry()
		for _, i := range order {
			r := recs[i]
			res, ev := mk(r.instance, r.query, r.kind, r.subject)
			reg.Record(ev, res)
		}
		incs := reg.Incidents()
		if len(incs) != len(want) {
			t.Fatalf("order %v: incidents = %d, want %d", order, len(incs), len(want))
		}
		for i, w := range want {
			got := rec{incs[i].Instance, incs[i].Query, incs[i].Kind, incs[i].Subject}
			if got != w {
				t.Errorf("order %v: rank %d = %+v, want %+v", order, i+1, got, w)
			}
			// The detail lookup finds each incident by its ID alone.
			if inc, ok := reg.Incident(incs[i].ID()); !ok || inc != incs[i] {
				t.Errorf("order %v: Incident(%s) = %+v, %v; want rank %d", order, incs[i].ID(), inc, ok, i+1)
			}
		}
		if _, ok := reg.Incident("0"); ok {
			t.Errorf("order %v: Incident found an ID no incident has", order)
		}
	}
}

// TestRegistryIgnoresMinedCausesForIdentity pins that mined entries
// (symptom-learning proposals) corroborate but never name incidents:
// their global-scope subject is the query, not a component.
func TestRegistryIgnoresMinedCausesForIdentity(t *testing.T) {
	mined := symptoms.CauseInstance{
		Kind: "cause-a" + symptoms.MinedSuffix, Subject: "Q2",
		Confidence: 100, Category: symptoms.High,
	}
	base := symptoms.CauseInstance{
		Kind: "cause-a", Subject: "vol-V1", Confidence: 90, Category: symptoms.High,
	}
	res := &diag.Result{
		Query:  "Q2",
		PD:     &diag.PDResult{},
		Causes: []symptoms.CauseInstance{mined, base},
		IA: &diag.IAResult{Items: []diag.ImpactItem{
			{Cause: mined, Score: 80}, {Cause: base, Score: 70},
		}},
	}
	ev := monitor.SlowdownEvent{
		Query: "Q2", RunID: "r", At: 100, Duration: 120, Baseline: 60,
		Window: simtime.NewInterval(0, 100),
	}
	reg := NewRegistry()
	reg.Record(ev, res)
	incs := reg.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	if incs[0].Kind != "cause-a" || incs[0].Subject != "vol-V1" {
		t.Errorf("incident filed under %s(%s), want cause-a(vol-V1)",
			incs[0].Kind, incs[0].Subject)
	}
}

// TestServiceRoutesInstancesToTheirEnvironments pins fleet routing: the
// same (query, window) from two instances are distinct jobs diagnosed
// against their own environments, and an unregistered instance fails
// rather than silently using another instance's environment.
func TestServiceRoutesInstancesToTheirEnvironments(t *testing.T) {
	env, evs, _ := slowdownRig(t, 46)
	svc := New(env, Config{Workers: 2})
	svc.AddInstance("inst-a", env)
	svc.AddInstance("inst-b", env)

	// Every job is queued before the workers start, so inst-a's first job
	// is still pending when its duplicate arrives.
	evA, evB, evX := evs[0], evs[0], evs[0]
	evA.Instance, evB.Instance, evX.Instance = "inst-a", "inst-b", "inst-unknown"
	if err := svc.Submit(evA); err != nil {
		t.Fatalf("submit inst-a: %v", err)
	}
	if err := svc.Submit(evB); err != nil {
		t.Fatalf("same window, different instance must not dedup: %v", err)
	}
	if err := svc.Submit(evA); err != ErrDuplicate {
		t.Errorf("same instance and window = %v, want ErrDuplicate", err)
	}
	if err := svc.Submit(evX); err != nil {
		t.Fatalf("submit unknown instance: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	svc.Wait()
	svc.Stop()

	st := svc.Stats()
	if st.Completed != 2 || st.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 2 completed (a, b) and 1 failed (unknown)",
			st.Completed, st.Failed)
	}
	incs := svc.Registry().Incidents()
	if len(incs) != 2 {
		t.Fatalf("incidents = %d, want one per instance", len(incs))
	}
	for _, inc := range incs {
		if inc.Instance != "inst-a" && inc.Instance != "inst-b" {
			t.Errorf("incident instance = %q", inc.Instance)
		}
	}
	if !strings.Contains(svc.Registry().Render(), "inst-a/Q2") {
		t.Errorf("render should show instance-qualified queries:\n%s", svc.Registry().Render())
	}
}

func TestRegistryRanksByEstimatedImpact(t *testing.T) {
	reg := NewRegistry()
	mk := func(query, kind, subject string, conf, impact float64) (*diag.Result, monitor.SlowdownEvent) {
		ci := symptoms.CauseInstance{Kind: kind, Subject: subject, Confidence: conf, Category: symptoms.High}
		res := &diag.Result{
			Query:  query,
			PD:     &diag.PDResult{},
			Causes: []symptoms.CauseInstance{ci},
			IA:     &diag.IAResult{Items: []diag.ImpactItem{{Cause: ci, Score: impact}}},
		}
		ev := monitor.SlowdownEvent{
			Query: query, RunID: "r", At: 100,
			Duration: 120, Baseline: 60,
			Window: simtime.NewInterval(0, 100),
		}
		return res, ev
	}

	resA, evA := mk("Q2", "cause-a", "vol-V1", 90, 100) // 60s extra × 100%
	resB, evB := mk("Q6", "cause-b", "vol-V2", 90, 10)  // 60s extra × 10%
	reg.Record(evB, resB)
	reg.Record(evA, resA)
	reg.Record(evA, resA) // recurrence doubles A's magnitude

	incs := reg.Incidents()
	if len(incs) != 2 {
		t.Fatalf("incidents = %d, want 2", len(incs))
	}
	if incs[0].Kind != "cause-a" {
		t.Errorf("top = %s, want cause-a (bigger impact)", incs[0].Kind)
	}
	if incs[0].Events != 2 || incs[0].TotalExtra != 120 {
		t.Errorf("aggregation: events=%d extra=%v, want 2/120s", incs[0].Events, incs[0].TotalExtra)
	}
	if got := incs[0].EstImpact(); got != 120 {
		t.Errorf("EstImpact = %.1f, want 120", got)
	}
	rendered := reg.Render()
	for _, want := range []string{"cause-a(vol-V1)", "cause-b(vol-V2)", "rank"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q:\n%s", want, rendered)
		}
	}
}

// TestTraceIDThreadsDetectionToDiagnosis pins the observability story:
// the monitor's deterministic trace ID rides the event into the service,
// comes out on the diagnosis's pipeline trace, and ties together the
// queue-wait, diagnosis, and per-module spans on the default tracer. It
// also covers the typed Stats snapshot (queue depth included) and the
// self-observer hook.
func TestTraceIDThreadsDetectionToDiagnosis(t *testing.T) {
	env, evs, _ := slowdownRig(t, 42)
	ev := evs[0]
	if ev.TraceID == "" {
		t.Fatal("monitor emitted an event without a trace ID")
	}
	if want := ev.Query + "/" + ev.RunID + "/" + string(ev.Kind); ev.TraceID != want {
		t.Errorf("trace ID = %q, want deterministic %q", ev.TraceID, want)
	}

	var observed []time.Duration
	var obsMu sync.Mutex
	svc := New(env, Config{Workers: 1})
	svc.Self = selfObserverFunc(func(query string, wall time.Duration) {
		obsMu.Lock()
		observed = append(observed, wall)
		obsMu.Unlock()
		if query != ev.Query {
			t.Errorf("self observer saw query %q, want %q", query, ev.Query)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	if err := svc.Submit(ev); err != nil {
		t.Fatalf("submit: %v", err)
	}
	svc.Wait()
	svc.Stop()

	st := svc.Stats()
	if st.Completed != 1 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v, want 1 completed, empty queue", st)
	}
	obsMu.Lock()
	n := len(observed)
	obsMu.Unlock()
	if n != 1 {
		t.Fatalf("self observer saw %d diagnoses, want 1", n)
	}

	incs := svc.Registry().Incidents()
	if len(incs) == 0 || incs[0].Result.Trace == nil {
		t.Fatal("no incident trace")
	}
	if incs[0].Result.Trace.TraceID != ev.TraceID {
		t.Errorf("pipeline trace ID = %q, want %q", incs[0].Result.Trace.TraceID, ev.TraceID)
	}

	spans := telemetry.DefaultTracer().Trace(ev.TraceID)
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	for _, want := range []string{"service.submit", "service.queue_wait", "service.diagnose", "module.pd", "module.ia"} {
		if !names[want] {
			t.Errorf("trace %s missing span %s (got %v)", ev.TraceID, want, names)
		}
	}
}

// selfObserverFunc adapts a function to the SelfObserver interface.
type selfObserverFunc func(query string, wall time.Duration)

func (f selfObserverFunc) ObserveDiagnosis(query string, wall time.Duration) { f(query, wall) }

// TestFloorCoversQueuedAndRunningJobs pins the retention floor a driver
// reads after Submit: the earliest read-window start among the
// instance's waiting, queued or running jobs, raised as they finish,
// never held by a duplicate or by a finished job, and never by another
// instance's. A window re-submitted after its diagnosis finished is a
// new job and holds the floor again until it finishes.
func TestFloorCoversQueuedAndRunningJobs(t *testing.T) {
	env, evs, _ := slowdownRig(t, 48)
	early, late, other := evs[0], evs[0], evs[0]
	early.Instance, late.Instance, other.Instance = "inst-a", "inst-a", "inst-b"
	late.ReadWindow.Start = early.ReadWindow.Start.Add(simtime.Hour)

	svc := New(env, Config{Workers: 1, Queue: 2})
	svc.AddInstance("inst-a", env)
	svc.AddInstance("inst-b", env)
	entered, release := make(chan struct{}), make(chan struct{})
	svc.OnDiagnosis = func(monitor.SlowdownEvent, *diag.Result) {
		entered <- struct{}{}
		<-release
	}
	floor := func(instance string, want simtime.Time, wantOK bool, when string) {
		t.Helper()
		if got, ok := svc.Floor(instance); ok != wantOK || (ok && got != want) {
			t.Errorf("%s: Floor(%s) = %v/%v, want %v/%v", when, instance, got, ok, want, wantOK)
		}
	}

	floor("inst-a", 0, false, "nothing submitted")
	// No workers yet: both jobs stay queued.
	if err := svc.Submit(early); err != nil {
		t.Fatal(err)
	}
	floor("inst-a", early.ReadWindow.Start, true, "one job queued")
	if err := svc.Submit(late); err != nil {
		t.Fatal(err)
	}
	floor("inst-a", early.ReadWindow.Start, true, "two jobs queued")
	if err := svc.Submit(early); err != ErrDuplicate {
		t.Fatalf("duplicate submit = %v", err)
	}
	floor("inst-a", early.ReadWindow.Start, true, "after a duplicate")
	waited := make(chan error, 1)
	go func() { waited <- svc.Submit(other) }()
	waitForFloor(t, svc, "inst-b", other.ReadWindow.Start) // its only job, waiting for queue space
	floor("inst-a", early.ReadWindow.Start, true, "another instance's job waiting")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	<-entered // early is running, held before it settles; late is queued
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	floor("inst-a", early.ReadWindow.Start, true, "one running, one queued")
	floor("inst-b", other.ReadWindow.Start, true, "queued behind another instance's jobs")
	release <- struct{}{}
	<-entered // early has finished, late is running
	floor("inst-a", late.ReadWindow.Start, true, "the earlier window finished")
	release <- struct{}{}
	<-entered // late has finished, inst-b's job is running
	floor("inst-a", 0, false, "both finished")
	release <- struct{}{}
	svc.Wait()
	floor("inst-b", 0, false, "finished")
	if err := svc.Submit(early); err != nil {
		t.Fatalf("re-submit of a diagnosed window = %v", err)
	}
	<-entered // early runs again
	floor("inst-a", early.ReadWindow.Start, true, "a diagnosed window re-submitted")
	release <- struct{}{}
	svc.Wait()
	floor("inst-a", 0, false, "the re-submitted window finished")
	svc.Stop()
}

// TestWaitInstanceSettlesOneInstance pins the point between one
// instance's diagnoses: WaitInstance returns once that instance has no
// waiting, queued or running job, while another instance's job is still
// running, and waits for a job of its own that is.
func TestWaitInstanceSettlesOneInstance(t *testing.T) {
	env, evs, _ := slowdownRig(t, 48)
	a, b := evs[0], evs[0]
	a.Instance, b.Instance = "inst-a", "inst-b"
	svc := New(env, Config{Workers: 2})
	svc.AddInstance("inst-a", env)
	svc.AddInstance("inst-b", env)
	entered, release := make(chan string), make(chan struct{})
	svc.OnDiagnosis = func(ev monitor.SlowdownEvent, _ *diag.Result) {
		entered <- ev.Instance
		if ev.Instance == "inst-b" {
			<-release
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	defer svc.Stop()
	for _, ev := range []monitor.SlowdownEvent{b, a} {
		if err := svc.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	<-entered
	<-entered // both have run their diagnosis; inst-b's is held
	svc.WaitInstance("inst-a")
	if _, ok := svc.Floor("inst-a"); ok {
		t.Error("WaitInstance(inst-a) returned with a job of inst-a pending")
	}
	if _, ok := svc.Floor("inst-b"); !ok {
		t.Fatal("inst-b's held job is not pending; the check is vacuous")
	}
	waited := make(chan struct{})
	go func() {
		svc.WaitInstance("inst-b")
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("WaitInstance(inst-b) returned while its job ran")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-waited
}

// TestAdmissionUnderContention pins the admission contract with several
// goroutines re-submitting overlapping real events while another reads
// Floor and Wait: each (instance, query, window) is diagnosed exactly as
// many times as a Submit of it returned nil — a Submit that finds its key
// waiting, queued or running returns ErrDuplicate and adds no diagnosis —
// and every Submit lands in exactly one counter. Run it under -race.
func TestAdmissionUnderContention(t *testing.T) {
	env, base, _ := slowdownRig(t, 49)
	type key struct {
		instance, query string
		window          simtime.Interval
	}
	keyOf := func(ev monitor.SlowdownEvent) key { return key{ev.Instance, ev.Query, ev.ReadWindow} }
	var mu sync.Mutex
	diagnosed, accepted := map[key]int{}, map[key]int{}
	undiagnosed := func(ev monitor.SlowdownEvent) bool {
		mu.Lock()
		defer mu.Unlock()
		return diagnosed[keyOf(ev)] == 0
	}
	svc := New(env, Config{Workers: 2, Queue: 4})
	svc.OnDiagnosis = func(ev monitor.SlowdownEvent, _ *diag.Result) {
		mu.Lock()
		diagnosed[keyOf(ev)]++
		mu.Unlock()
	}
	submit := func(ev monitor.SlowdownEvent) error {
		err := svc.Submit(ev)
		if err == nil {
			mu.Lock()
			accepted[keyOf(ev)]++
			mu.Unlock()
		}
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)

	earliest := base[0].ReadWindow.Start
	for _, ev := range base {
		earliest = min(earliest, ev.ReadWindow.Start)
	}
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if floor, ok := svc.Floor(""); ok && floor < earliest {
				t.Errorf("floor %v below every submitted window", floor)
			}
			svc.Wait()
		}
	}()

	// Each round shifts every window to a fresh key. Submitters keep
	// re-submitting the round's undiagnosed keys until each has been
	// diagnosed, so re-submissions race each job's completion and, with
	// the queue full, wait for space while the key already dedups.
	var evs []monitor.SlowdownEvent
	for round := 0; round < 8; round++ {
		batch := make([]monitor.SlowdownEvent, len(base))
		for i, ev := range base {
			ev.ReadWindow.End = ev.ReadWindow.End.Add(simtime.Duration(round)) // distinct keys
			batch[i] = ev
		}
		evs = append(evs, batch...)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for pending := true; pending; {
					pending = false
					for i := range batch {
						ev := batch[(i+g)%len(batch)]
						if !undiagnosed(ev) {
							continue
						}
						pending = true
						if err := submit(ev); err == ErrStopped {
							t.Error(err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
	svc.Wait()
	// No key is pending now: a last pass re-submits every window, and
	// each is diagnosed again.
	for _, ev := range evs {
		if err := submit(ev); err != nil {
			t.Errorf("re-submit of a diagnosed window = %v, want nil", err)
		}
	}
	svc.Wait()
	close(stop)
	<-watched
	svc.Stop()

	total := int64(0)
	for _, ev := range evs {
		k := keyOf(ev)
		if diagnosed[k] != accepted[k] || diagnosed[k] < 2 {
			t.Errorf("%s window %v diagnosed %d times for %d accepted submits, want equal and at least 2",
				ev.Query, ev.ReadWindow, diagnosed[k], accepted[k])
		}
		total += int64(accepted[k])
	}
	st := svc.Stats()
	if st.Completed != total || st.Failed != 0 {
		t.Errorf("completed=%d failed=%d, want %d/0", st.Completed, st.Failed, total)
	}
	if st.Rejected != 0 || st.Submitted != st.Completed+st.Deduped+st.Rejected+st.Failed {
		t.Errorf("submitted=%d != completed %d + deduped %d + rejected %d (want 0) + failed %d",
			st.Submitted, st.Completed, st.Deduped, st.Rejected, st.Failed)
	}
}
