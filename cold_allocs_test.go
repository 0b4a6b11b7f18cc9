//go:build !race

package diads_test

import (
	"testing"

	"diads"
)

// coldDiagnosisAllocs is the allocation budget of one cold diagnosis of
// each scenario at benchSeed: the count measured when it was set plus at
// most 10 % headroom. A change that needs more allocations raises the
// ceiling in the open, with its reason; one that needs fewer lowers it.
var coldDiagnosisAllocs = map[diads.ScenarioID]float64{
	diads.ScenarioSANMisconfig:     178,
	diads.ScenarioTwoPools:         162,
	diads.ScenarioDataProperty:     168,
	diads.ScenarioConcurrentFaults: 184,
	diads.ScenarioLockingNoise:     162,
	diads.ScenarioPlanRegression:   160,
	diads.ScenarioCPUSaturation:    157,
	diads.ScenarioDiskFailure:      170,
	diads.ScenarioRAIDRebuild:      167,
}

// TestColdDiagnosisAllocs holds every scenario's cold diagnosis (no APG
// or SD cache, as in BenchmarkDiagnoseCold and diadsperf's
// diagnose-batch) to its allocation budget. The race detector adds a few
// allocations per diagnosis, so the test is built only without it; CI
// runs it in a step of its own.
func TestColdDiagnosisAllocs(t *testing.T) {
	for _, id := range allScenarioIDs {
		sc := scenarioFor(t, id)
		var err error
		got := testing.AllocsPerRun(20, func() { _, _, err = sc.Diagnose() })
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		t.Logf("scenario %d: %.0f allocations per diagnosis", id, got)
		if limit := coldDiagnosisAllocs[id]; got > limit {
			t.Errorf("scenario %d: %.0f allocations per cold diagnosis, budget %.0f", id, got, limit)
		}
	}
}
