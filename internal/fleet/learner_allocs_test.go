//go:build !race

package fleet

import (
	"reflect"
	"testing"

	"diads/internal/service"
	"diads/internal/symptoms"
)

// TestLearnerObserveAllocs pins the cost of an Observe that brings no new
// evidence: the HTTP node calls Observe after every diagnosis with the
// one incident that diagnosis filed (Registry.FiledBy), which is often
// one the learner has already routed, and a repeat must allocate nothing
// and change nothing. The race detector adds
// allocations, so the test is built only without it; CI runs it in the
// allocation-budget step.
func TestLearnerObserveAllocs(t *testing.T) {
	a := NewLearner(LearnConfig{Review: ReviewOperator}, symptoms.NewDB())
	a.AddHealthy(testFacts(map[string]float64{"ambient-load:pool-P1": 0.9}))
	mixed := map[string]float64{"ambient-load:pool-P1": 0.9, "real-symptom:vol-V1": 0.95}
	incs := []service.Incident{
		confirmed("inst-0", "Q2", "san-contention", testFacts(mixed)),
		confirmed("inst-1", "Q2", "san-contention", testFacts(mixed)),
		confirmed("inst-2", "Q2", "san-contention", testFacts(mixed)),
		confirmed("inst-3", "Q6", "lock-storm", testFacts(mixed)),
	}
	a.Observe(incs)
	before := a.Stats()
	if len(before.Pending) == 0 {
		t.Fatalf("the first Observe should leave a candidate pending, got %+v", before)
	}
	if got := testing.AllocsPerRun(100, func() { a.Observe(incs) }); got != 0 {
		t.Errorf("an Observe with no new evidence allocates %.0f times, want 0", got)
	}
	if after := a.Stats(); !reflect.DeepEqual(before, after) {
		t.Errorf("an Observe with no new evidence changed stats\nbefore %+v\nafter  %+v", before, after)
	}
}
