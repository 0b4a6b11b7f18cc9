// Exchange tests drive the epoch fold directly: epoch math and the
// install-visibility contract (an entry mined from epoch-k deposits
// becomes visible at the fold of k — between epochs, never mid-wave).
package fleet

import (
	"math"
	"testing"

	"diads/internal/simtime"
	"diads/internal/symptoms"
)

func TestEpochMath(t *testing.T) {
	const e = 10 * simtime.Minute
	cases := []struct {
		t    simtime.Time
		want int64
	}{
		{0, 0},
		{1, 0},
		{simtime.Time(e), 0},         // boundary belongs below: (0, E] is epoch 0
		{simtime.Time(e) + 1, 1},     // just past the boundary
		{simtime.Time(2 * e), 1},     // (E, 2E] is epoch 1
		{simtime.Time(2*e) + 0.5, 2}, // fractional seconds round up
		{simtime.Time(37 * e), 36},   // far grid point
	}
	for _, c := range cases {
		if got := epochOf(c.t); got != c.want {
			t.Errorf("epochOf(%v) = %d, want %d", c.t, got, c.want)
		}
	}

	frontiers := []struct {
		f    simtime.Time
		want int64
	}{
		{0, -1},                                    // nothing released yet
		{simtime.Time(e) - 1, -1},                  // mid-epoch-0: epoch 0 incomplete
		{simtime.Time(e), 0},                       // frontier at the boundary: epoch 0 complete
		{simtime.Time(e) + 1, 0},                   // past the boundary, epoch 1 still open
		{simtime.Time(3 * e), 2},                   // three boundaries crossed
		{simtime.Time(math.MaxFloat64), epochDone}, // all instances finished
	}
	for _, c := range frontiers {
		if got := completeThrough(c.f); got != c.want {
			t.Errorf("completeThrough(%v) = %d, want %d", c.f, got, c.want)
		}
	}
}

// TestExchangeInstallAtSealBoundary pins the visibility contract at
// the fold: confirmations deposited under epoch k install into the
// shared database exactly when epoch k folds. The fleet folds k only
// after every shard has diagnosed k and before any diagnoses k+1, so an
// entry installed at fold k is seen by epoch k+1's diagnoses (the new
// database version, which the SD cache key respects) and never by
// epoch k's; deposits of a later epoch wait for their own fold.
func TestExchangeInstallAtSealBoundary(t *testing.T) {
	symdb := symptoms.NewDB()
	ex := newExchange(NewLearner(LearnConfig{}, symdb))
	v0 := symdb.Version()
	healthy := func() int {
		return int(ex.learn.read(func(l *learner) float64 {
			return float64(l.validator.HealthyCount())
		}))
	}

	// Epoch 0: the healthy corpus arrives and folds.
	ex.depositHealthy(0, testFacts(map[string]float64{"ambient:p": 0.9}))
	ex.fold(0)
	if symdb.Version() != v0 {
		t.Fatalf("healthy-only epoch bumped the database version")
	}

	// Epoch 1's waves: three confirmations of one kind — enough to mine,
	// hold out, validate, and install at the fold. A base from epoch 2
	// is already in as well.
	facts := map[string]float64{"ambient:p": 0.9, "real-symptom:vol-V1": 0.95}
	for i, inst := range []string{"inst-0", "inst-1", "inst-2"} {
		ex.depositConfirm(confirmation{
			waveEnd: simtime.Time(epochLen) + simtime.Time(i+1), // distinct epoch-1 wave ends
			inc:     confirmed(inst, "Q2", "san-contention", testFacts(facts)),
		})
	}
	ex.depositHealthy(2, testFacts(map[string]float64{"ambient:q": 0.7}))
	if symdb.Version() != v0 {
		t.Fatalf("install happened before epoch 1 folded: epoch 1's own diagnoses would see it")
	}

	ex.fold(1)
	if symdb.Version() == v0 {
		t.Fatalf("database version unchanged after fold(1): epoch 2's diagnoses would miss the install")
	}
	if got := healthy(); got != 1 {
		t.Fatalf("fold(1) took the epoch-2 base: healthy=%d", got)
	}
	st := ex.learn.Stats()
	if len(st.Installed) != 1 {
		t.Fatalf("want exactly one installed entry at the fold, got %+v", st)
	}
	if got := st.Installed[0].Sources; len(got) != 2 || got[0] != "inst-0" || got[1] != "inst-1" {
		t.Fatalf("authors = %v, want the two mined instances (hold-out excluded)", got)
	}
	ex.fold(2)
	if got := healthy(); got != 2 {
		t.Fatalf("the epoch-2 base did not fold with its epoch: healthy=%d", got)
	}
}

// TestExchangeLateDepositFoldsNextEpoch pins the backstop: a deposit
// tagged with an already-folded epoch folds with the next epoch instead
// of vanishing or mutating folded history.
func TestExchangeLateDepositFoldsNextEpoch(t *testing.T) {
	ex := newExchange(NewLearner(LearnConfig{}, symptoms.NewDB()))

	ex.fold(0) // epoch 0 folds empty
	ex.depositHealthy(0, testFacts(map[string]float64{"late:fact": 0.5}))
	healthy := func() int {
		return int(ex.learn.read(func(l *learner) float64 {
			return float64(l.validator.HealthyCount())
		}))
	}
	if got := healthy(); got != 0 {
		t.Fatalf("late deposit folded into a folded epoch: healthy=%d", got)
	}
	ex.fold(1)
	if got := healthy(); got != 1 {
		t.Fatalf("late deposit lost: healthy=%d after the next fold", got)
	}
}
