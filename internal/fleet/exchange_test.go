// Exchange tests drive the epoch-seal protocol directly: epoch math,
// the all-shards-declared seal condition, and the install-visibility
// contract (an entry mined from epoch-k deposits becomes visible at the
// seal of k — between epochs, never mid-wave).
package fleet

import (
	"math"
	"sync"
	"testing"
	"time"

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

// TestExchangeSealsAtFleetMinimum pins the seal condition: an epoch's
// deposits fold into the learner only once EVERY shard has declared the
// epoch complete — one lagging shard holds the whole fold back.
func TestExchangeSealsAtFleetMinimum(t *testing.T) {
	l := newLearner(LearnConfig{}.withDefaults(), symptoms.NewDB())
	ex := newExchange(LearnConfig{}.withDefaults(), l, 2)

	ex.depositHealthy(0, testFacts(map[string]float64{"ambient:p": 0.9}))
	healthyCount := func() int {
		return int(ex.read(func(l *learner) float64 {
			return float64(l.validator.HealthyCount())
		}))
	}

	ex.declare(0, 0)
	if got := healthyCount(); got != 0 {
		t.Fatalf("epoch 0 folded with shard 1 still streaming: healthy=%d", got)
	}
	ex.declare(1, 0)
	if got := healthyCount(); got != 1 {
		t.Fatalf("epoch 0 not folded after both shards declared: healthy=%d", got)
	}
	// waitSealed on a sealed epoch returns immediately.
	if err := ex.waitSealed(0); err != nil {
		t.Fatalf("waitSealed(0) after seal: %v", err)
	}
}

// TestExchangeInstallAtSealBoundary pins the tentpole's visibility
// contract end to end: confirmations deposited under epoch k install
// into the shared database exactly when epoch k seals — a shard parked
// in waitSealed(k) observes the new database version (which the SD
// cache key respects) when it wakes for epoch k+1, and never earlier.
func TestExchangeInstallAtSealBoundary(t *testing.T) {
	symdb := symptoms.NewDB()
	l := newLearner(LearnConfig{}.withDefaults(), symdb)
	ex := newExchange(LearnConfig{}.withDefaults(), l, 2)
	v0 := symdb.Version()

	// Epoch 0: the healthy corpus arrives; both shards declare.
	ex.depositHealthy(0, testFacts(map[string]float64{"ambient:p": 0.9}))
	ex.declare(0, 0)
	ex.declare(1, 0)
	if symdb.Version() != v0 {
		t.Fatalf("healthy-only epoch bumped the database version")
	}

	// Epoch 1: three confirmations of one kind — enough to mine,
	// hold out, validate, and install at the seal.
	facts := map[string]float64{"ambient:p": 0.9, "real-symptom:vol-V1": 0.95}
	for i, inst := range []string{"inst-0", "inst-1", "inst-2"} {
		ex.depositConfirm(1, confirmation{
			waveEnd: simtime.Time(i), // distinct wave ends; order exercised below
			inc:     confirmed(inst, "Q2", "san-contention", testFacts(facts)),
		})
	}
	ex.declare(0, 1)
	if symdb.Version() != v0 {
		t.Fatalf("install happened before every shard declared epoch 1")
	}

	// Shard 1 is about to process its first epoch-2 wave: it declares 1
	// and parks in waitSealed(1). The install must be complete when the
	// wait returns.
	var wg sync.WaitGroup
	wg.Add(1)
	sawInstall := false
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		ex.declare(1, 1)
	}()
	if err := ex.waitSealed(1); err != nil {
		t.Fatalf("waitSealed(1): %v", err)
	}
	sawInstall = symdb.Version() > v0
	wg.Wait()
	if !sawInstall {
		t.Fatalf("database version unchanged after seal(1): install missed the boundary")
	}
	st := ex.stats()
	if len(st.Installed) != 1 {
		t.Fatalf("want exactly one installed entry at the seal, got %+v", st)
	}
	if got := st.Installed[0].Sources; len(got) != 2 || got[0] != "inst-0" || got[1] != "inst-1" {
		t.Fatalf("authors = %v, want the two mined instances (hold-out excluded)", got)
	}
}

// TestExchangeLateDepositFoldsNextEpoch pins the backstop: a deposit
// tagged with an already-sealed epoch folds into the next unsealed one
// instead of vanishing or mutating sealed history.
func TestExchangeLateDepositFoldsNextEpoch(t *testing.T) {
	l := newLearner(LearnConfig{}.withDefaults(), symptoms.NewDB())
	ex := newExchange(LearnConfig{}.withDefaults(), l, 1)

	ex.declare(0, 0) // seal epoch 0 empty
	ex.depositHealthy(0, testFacts(map[string]float64{"late:fact": 0.5}))
	healthy := func() int {
		return int(ex.read(func(l *learner) float64 {
			return float64(l.validator.HealthyCount())
		}))
	}
	if got := healthy(); got != 0 {
		t.Fatalf("late deposit folded into a sealed epoch: healthy=%d", got)
	}
	ex.declare(0, 1)
	if got := healthy(); got != 1 {
		t.Fatalf("late deposit lost: healthy=%d after the next seal", got)
	}
}

// TestExchangeDisabled pins that a disabled exchange is inert: deposits
// vanish, waits return instantly, transfers answer false.
func TestExchangeDisabled(t *testing.T) {
	cfg := LearnConfig{Disabled: true}.withDefaults()
	cfg.Disabled = true
	l := newLearner(cfg, symptoms.NewDB())
	ex := newExchange(cfg, l, 4)
	ex.depositHealthy(3, testFacts(map[string]float64{"x": 1}))
	ex.depositConfirm(3, confirmation{inc: confirmed("i", "Q2", "k", testFacts(map[string]float64{"x": 1}))})
	if err := ex.waitSealed(99); err != nil {
		t.Fatalf("disabled waitSealed: %v", err)
	}
	if ex.transferIn("k"+symptoms.MinedSuffix, "i") {
		t.Fatal("disabled exchange reported a transfer")
	}
	if st := ex.stats(); st.Confirmed != 0 || st.Healthy != 0 {
		t.Fatalf("disabled exchange accumulated state: %+v", st)
	}
}
