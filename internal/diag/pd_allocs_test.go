//go:build !race

package diag_test

import (
	"testing"

	"diads/internal/diag"
	"diads/internal/experiments"
)

// planDiffingAllocs is the allocation budget of Module PD on the
// plan-change scenario: the count measured when it was set plus at most
// 10 % headroom. It measured 9, all kept by the result: the PDResult,
// its Differences and their five details, its Causes and the one
// cause's detail.
const planDiffingAllocs = 9

// TestPlanDiffingAllocs holds Module PD on the plan-change scenario,
// seeded as a diagnosis runs it, to its budget. The replay plans on one
// read of the live schema with the change laid over it, prices the
// candidates in pooled scratch and compares signatures on the scratch
// tree, so it builds no plan and copies no catalog. The race detector
// adds allocations, so the test is built only without it; CI runs it in
// a step of its own.
func TestPlanDiffingAllocs(t *testing.T) {
	sc, err := experiments.Build(experiments.SPlanRegression, 706)
	if err != nil {
		t.Fatal(err)
	}
	in, err := diag.Seed(sc.Input)
	if err != nil {
		t.Fatal(err)
	}
	var res *diag.PDResult
	got := testing.AllocsPerRun(100, func() { res, err = diag.PlanDiffing(in) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed || len(res.Causes) == 0 || !res.Causes[0].Explains {
		t.Fatalf("PD did not explain the plan change: %+v", res)
	}
	t.Logf("%.0f allocations per PD run: %d differences, %d causes", got, len(res.Differences), len(res.Causes))
	if got > planDiffingAllocs {
		t.Errorf("PD allocates %.0f times, budget %d", got, planDiffingAllocs)
	}
}
