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
// order whatever order they were posted in.
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
	var canonical []WireOp
	for _, id := range slices.Sorted(maps.Keys(want)) {
		canonical = append(canonical, want[id])
	}
	if got := WireRunOf(rec).Ops; !reflect.DeepEqual(got, canonical) {
		t.Errorf("WireRunOf(posted).Ops = %v, want %v", got, canonical)
	}
}
