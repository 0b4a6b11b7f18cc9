//go:build !race

package diads_test

import (
	"runtime"
	"testing"

	"diads"
)

// coldDiagnosisAllocs is the allocation budget of one cold diagnosis of
// each scenario at benchSeed: the count measured when it was set plus at
// most 10 % headroom. A change that needs more allocations raises the
// ceiling in the open, with its reason; one that needs fewer lowers it.
var coldDiagnosisAllocs = map[diads.ScenarioID]float64{
	diads.ScenarioSANMisconfig:     50,
	diads.ScenarioTwoPools:         44,
	diads.ScenarioDataProperty:     49,
	diads.ScenarioConcurrentFaults: 57,
	diads.ScenarioLockingNoise:     44,
	diads.ScenarioPlanRegression:   25,
	diads.ScenarioCPUSaturation:    42,
	diads.ScenarioDiskFailure:      48,
	diads.ScenarioRAIDRebuild:      46,
}

// coldDiagnosisBytes is the byte budget of the same diagnoses, set the
// same way: the bytes measured per diagnosis plus at most 10 %.
var coldDiagnosisBytes = map[diads.ScenarioID]float64{
	diads.ScenarioSANMisconfig:     39243,
	diads.ScenarioTwoPools:         37298,
	diads.ScenarioDataProperty:     35996,
	diads.ScenarioConcurrentFaults: 41074,
	diads.ScenarioLockingNoise:     36427,
	diads.ScenarioPlanRegression:   2788,
	diads.ScenarioCPUSaturation:    34350,
	diads.ScenarioDiskFailure:      35063,
	diads.ScenarioRAIDRebuild:      34491,
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

// TestColdDiagnosisBytes holds every scenario's cold diagnosis to its
// byte budget: the heap bytes allocated (runtime.MemStats.TotalAlloc)
// over 20 diagnoses, per diagnosis. A first diagnosis fills the scratch
// pools and a collection settles the heap before the count starts, so
// the count rarely sees a collection. It runs on one P: a sync.Pool
// keeps a returned object on the P that returned it, so a goroutine
// that migrates between Ps misses it now and then, and the count would
// read the scheduler as much as the diagnosis.
func TestColdDiagnosisBytes(t *testing.T) {
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, id := range allScenarioIDs {
		sc := scenarioFor(t, id)
		if _, _, err := sc.Diagnose(); err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, _, err := sc.Diagnose(); err != nil {
				t.Fatalf("scenario %d: %v", id, err)
			}
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("scenario %d: %.0f bytes per diagnosis", id, got)
		if limit := coldDiagnosisBytes[id]; got > limit {
			t.Errorf("scenario %d: %.0f bytes per cold diagnosis, budget %.0f", id, got, limit)
		}
	}
}
