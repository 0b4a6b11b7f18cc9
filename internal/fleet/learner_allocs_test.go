//go:build !race

package fleet

import (
	"reflect"
	"testing"

	"diads/internal/service"
	"diads/internal/simtime"
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

// TestEpochFoldAllocs pins what one learning epoch costs the fleet's
// exchange, deposit plus fold, when it brings the learner nothing new:
// a healthy base the corpus already holds, a confirmation the learner
// has already been fed, or no deposit at all. Each budget is the
// measured count plus 10 %, rounded down; -v prints the counts.
func TestEpochFoldAllocs(t *testing.T) {
	ex := newExchange(NewLearner(LearnConfig{}, symptoms.NewDB()))
	base := testFacts(map[string]float64{"ambient-load:pool-P1": 0.9})
	inc := confirmed("inst-0", "Q2", "san-contention",
		testFacts(map[string]float64{"ambient-load:pool-P1": 0.9, "real-symptom:vol-V1": 0.95}))
	var epoch int64
	ex.depositHealthy(epoch, base)
	ex.depositConfirm(confirmation{waveEnd: simtime.Time(epochLen), inc: inc})
	ex.fold(epoch)
	before := ex.learn.Stats()

	for _, c := range []struct {
		name    string
		deposit func()
		budget  float64
	}{
		{"healthy base already held", func() { ex.depositHealthy(epoch, base) }, 11},
		{"confirmation already fed", func() {
			ex.depositConfirm(confirmation{waveEnd: simtime.Time(epoch+1) * simtime.Time(epochLen), inc: inc})
		}, 3},
		{"empty", func() {}, 0},
	} {
		got := testing.AllocsPerRun(100, func() {
			epoch++
			c.deposit()
			ex.fold(epoch)
		})
		t.Logf("%s: %.0f allocations", c.name, got)
		if got > c.budget {
			t.Errorf("an epoch holding %s: deposit and fold allocate %.0f times, budget %.0f", c.name, got, c.budget)
		}
	}
	if after := ex.learn.Stats(); !reflect.DeepEqual(before, after) {
		t.Errorf("epochs with nothing new changed the learner\nbefore %+v\nafter  %+v", before, after)
	}
}
