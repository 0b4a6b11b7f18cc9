package api

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"diads/internal/experiments"
)

// TestRunRecordOps pins a run's operators as a slice sorted by ID: an
// engine run holds its plan's IDs 1..n in place, a posted run reads back
// through Op as an ID-keyed map would (the last of a repeated ID wins, an
// absent ID is nil), and WireRunOf emits the operators in canonical ID
// order whatever order they were posted in. A record keeps only what the
// run measured: a posted run reads back its plan's types, tables and
// estimates, and one that posted others counts as a plan mismatch.
func TestRunRecordOps(t *testing.T) {
	env := simulateClient(t, experiments.OnlineSpec{Seed: testSeed, Runs: 16})
	runs := env.Testbed.Runs
	if len(runs) == 0 {
		t.Fatal("no runs simulated")
	}
	for _, rec := range runs {
		if len(rec.Ops) != rec.Plan.NumOperators() {
			t.Fatalf("%s: %d operators, plan has %d", rec.RunID, len(rec.Ops), rec.Plan.NumOperators())
		}
		for i := range rec.Ops {
			if rec.Ops[i].ID != i+1 || rec.Op(i+1) != &rec.Ops[i] {
				t.Fatalf("%s: Ops[%d] holds O%d", rec.RunID, i, rec.Ops[i].ID)
			}
		}
		wr := WireRunOf(rec)
		if !wr.matchesPlan(rec.Plan) {
			t.Fatalf("%s: an engine run disagrees with its own plan", rec.RunID)
		}
		if back := WireRunOf(wr.runRecord(rec.Plan)); !reflect.DeepEqual(back, wr) {
			t.Fatalf("%s: WireRunOf(runRecord(wr)) does not round-trip", rec.RunID)
		}
	}

	// A posted run: out of order, O3 twice, O4 missing. Each posted
	// operator carries a distinct Recorded value to tell them apart.
	p := runs[0].Plan
	posted := WireRun{Query: p.Query, RunID: "posted"}
	for i, id := range []int{5, 1, 3, 2, 3} {
		posted.Ops = append(posted.Ops, WireOp{ID: id, Type: "SeqScan", Recorded: float64(10*i + id)})
	}
	want := map[int]WireOp{} // the map a run's operators used to live in
	for _, op := range posted.Ops {
		want[op.ID] = op
	}
	if posted.matchesPlan(p) {
		t.Error("a run posting SeqScan for every operator matches the plan")
	}
	rec := posted.runRecord(p)
	for id := -1; id <= 7; id++ {
		got, op := rec.Op(id), want[id]
		switch {
		case got == nil && op.ID == 0:
		case got == nil || op.ID == 0:
			t.Errorf("Op(%d) = %v, want %v", id, got, op)
		case got.ID != id || float64(got.Recorded) != op.Recorded:
			t.Errorf("Op(%d) = O%d recorded %v, want recorded %v", id, got.ID, got.Recorded, op.Recorded)
		}
	}
	// The posted type, table and estimate are not kept: compare the IDs
	// and what the run measured.
	measured := func(op WireOp) WireOp {
		op.Type, op.Table, op.EstRows = "", "", 0
		return op
	}
	var canonical []WireOp
	for _, id := range slices.Sorted(maps.Keys(want)) {
		canonical = append(canonical, measured(want[id]))
	}
	var got []WireOp
	for _, op := range WireRunOf(rec).Ops {
		got = append(got, measured(op))
	}
	if !reflect.DeepEqual(got, canonical) {
		t.Errorf("WireRunOf(posted).Ops = %v, want %v", got, canonical)
	}
}

// TestPlanMismatchCounted posts a run as the engine recorded it and the
// same run claiming a sequential scan for every operator: the node
// applies both and counts only the second in diads_api_plan_mismatch_total.
func TestPlanMismatchCounted(t *testing.T) {
	env := simulateClient(t, experiments.OnlineSpec{Seed: testSeed, Runs: 16})
	agreeing := WireRunOf(env.Testbed.Runs[0])
	disagreeing := WireRunOf(env.Testbed.Runs[1])
	for i := range disagreeing.Ops {
		disagreeing.Ops[i].Type = "SeqScan"
	}

	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	before := node.tel.mismatch.Value()
	runs := &RunBatch{Tenant: "acme", Instance: "db-1", Runs: []WireRun{agreeing, disagreeing}}
	postBatch(t, node, "/v1/ingest/runs", runs)
	if got := node.tel.mismatch.Value() - before; got != 1 {
		t.Errorf("plan mismatches counted = %d, want 1", got)
	}
	node.mu.Lock()
	in := node.instances[keyOf("acme", "db-1")]
	node.mu.Unlock()
	if got := in.Monitor.Stats().Observed; got != 2 {
		t.Errorf("monitor observed %d runs, want both", got)
	}
}
