package fleet

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
)

// errAborted unwinds exchange waiters when the fleet fails: waitSealed
// must not block forever once no shard will declare again.
var errAborted = errors.New("fleet: learning exchange aborted")

// epochOf maps an evidence time onto its learning epoch: epoch k covers
// read-window ends in (k*E, (k+1)*E], E = epochLen. The half-open-below
// shape matches the gates' inclusive release (End <= watermark): when a
// shard's frontier reaches the boundary (k+1)*E, every epoch-k event has
// been released, so the epoch is complete exactly at its boundary.
func epochOf(t simtime.Time) int64 {
	k := int64(math.Ceil(float64(t)/float64(epochLen))) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// epochDone is the declaration a shard makes when nothing below any
// finite evidence time can ever arrive again (all its instances
// finished, their tails fully released).
const epochDone = math.MaxInt64

// completeThrough returns the highest epoch the frontier proves
// complete: every event with a read-window end in that epoch has been
// released. The frontier is the minimum watermark over a shard's alive
// instances (+Inf when all finished).
func completeThrough(frontier simtime.Time) int64 {
	if float64(frontier) >= math.MaxFloat64 {
		return epochDone
	}
	k := epochOf(frontier)
	if float64(frontier) >= float64(k+1)*float64(epochLen) {
		return k
	}
	return k - 1
}

// confirmation is one shard's deposit of a newly-confirmed incident:
// the incident snapshot at the evidence-time wave where it crossed the
// confirmation gate. The (waveEnd, identity) key gives the seal a total
// order over deposits that is a function of the event stream alone —
// independent of shard count, chunk size, and worker interleaving.
type confirmation struct {
	waveEnd simtime.Time
	inc     service.Incident
}

// exchange is the asynchronous symptom-learning exchange between the
// shards and the central learner. Shards deposit healthy-period fact
// bases and confirmed incidents tagged with their evidence-time epoch,
// declare epochs complete as their release frontiers pass epoch
// boundaries, and the exchange folds each epoch's deposits into the
// learner — observe, then step — exactly once, when every shard has
// declared it: the epoch's seal. Installs therefore happen at
// deterministic epoch boundaries (bumping symptoms.DB.Version, which
// the SD cache key respects), and a shard diagnoses an epoch-e wave
// only after seal(e-1), so every diagnosis sees exactly the database
// the epoch ordering dictates — never a mid-wave install.
//
// The exchange replaces the per-wave global learn barrier: shards
// synchronize once per epoch instead of once per wave, and never on
// the diagnosis hot path.
type exchange struct {
	mu       sync.Mutex
	cond     sync.Cond // signaled under mu when the seal advances
	learn    *learner
	disabled bool

	declared []int64 // per shard, highest epoch declared complete
	sealed   int64   // highest epoch folded into the learner
	maxReq   int64   // highest epoch any deposit or waiter needs sealed
	aborted  bool

	healthy  map[int64][]*symptoms.FactBase
	confirms map[int64][]confirmation

	learnSec *telemetry.Histogram
	sealsTel *telemetry.Counter
}

func newExchange(cfg LearnConfig, l *learner, shards int) *exchange {
	ex := &exchange{
		learn:    l,
		disabled: cfg.Disabled,
		declared: make([]int64, shards),
		sealed:   -1,
		maxReq:   -1,
		healthy:  make(map[int64][]*symptoms.FactBase),
		confirms: make(map[int64][]confirmation),
	}
	ex.cond.L = &ex.mu
	for i := range ex.declared {
		ex.declared[i] = -1
	}
	reg := telemetry.Default()
	ex.learnSec = reg.Histogram("diads_fleet_learn_step_seconds",
		"Wall time of one symptom-learning epoch seal.",
		nil, nil)
	ex.sealsTel = reg.Counter("diads_fleet_epoch_seals_total",
		"Learning epochs sealed (deposits folded into the learner).", nil)
	return ex
}

// depositHealthy records a healthy-period fact base under its epoch.
// Safe from shard coordinators and service workers alike.
func (ex *exchange) depositHealthy(epoch int64, fb *symptoms.FactBase) {
	if ex.disabled || fb == nil {
		return
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if epoch <= ex.sealed {
		// A healthy base surfacing after its epoch sealed (possible only
		// through scheduling skew in the depositing worker) would make
		// learner state depend on timing; fold it into the next unsealed
		// epoch instead, which is deterministic. The coordinator protocol
		// prevents this for its own deposits; this is a backstop.
		epoch = ex.sealed + 1
	}
	ex.healthy[epoch] = append(ex.healthy[epoch], fb)
	if epoch > ex.maxReq {
		ex.maxReq = epoch
	}
}

// depositConfirm records a newly-confirmed incident under its epoch.
func (ex *exchange) depositConfirm(epoch int64, c confirmation) {
	if ex.disabled {
		return
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if epoch <= ex.sealed {
		epoch = ex.sealed + 1
	}
	ex.confirms[epoch] = append(ex.confirms[epoch], c)
	if epoch > ex.maxReq {
		ex.maxReq = epoch
	}
}

// declare marks every epoch up to e complete for the shard and seals
// whatever the fleet-wide minimum now allows. Sealing runs inline in
// whichever declare crossed the threshold; the learner state transition
// is a pure function of the deposits, so which shard's goroutine runs
// it cannot matter.
func (ex *exchange) declare(shardID int, e int64) {
	if ex.disabled {
		return
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if e > ex.declared[shardID] {
		ex.declared[shardID] = e
	}
	ex.sealLocked()
}

// waitSealed blocks until epoch e is sealed (trivially true for e < 0).
// The caller must have declared at least e already, or it would wait on
// its own missing declaration.
func (ex *exchange) waitSealed(e int64) error {
	if ex.disabled || e < 0 {
		return nil
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if e > ex.maxReq {
		ex.maxReq = e
		ex.sealLocked()
	}
	for ex.sealed < e {
		if ex.aborted {
			return errAborted
		}
		ex.cond.Wait()
	}
	return nil
}

// abort wakes every waiter with an error; called when the fleet fails.
func (ex *exchange) abort() {
	ex.mu.Lock()
	ex.aborted = true
	ex.cond.Broadcast()
	ex.mu.Unlock()
}

// sealLocked advances the seal to min(lowest declaration, highest
// requested epoch), folding each epoch's deposits into the learner in
// deposit-order-free sorted order. Requires ex.mu.
func (ex *exchange) sealLocked() {
	limit := ex.maxReq
	for _, d := range ex.declared {
		if d < limit {
			limit = d
		}
	}
	progressed := false
	for ex.sealed < limit {
		ex.sealed++
		ex.foldLocked(ex.sealed)
		progressed = true
	}
	if progressed {
		ex.cond.Broadcast()
	}
}

// foldLocked runs one epoch's learn step: healthy bases first (sorted
// by fingerprint — corpus content is a set, so any canonical order
// works), then confirmations in (waveEnd, instance, query, kind,
// subject) order — the order the event stream alone dictates — then one
// lifecycle step. Installs here bump the shared database version; no
// shard is mid-wave for any epoch <= sealed, so no diagnosis ever
// observes a half-applied install.
func (ex *exchange) foldLocked(epoch int64) {
	healthy := ex.healthy[epoch]
	confirms := ex.confirms[epoch]
	delete(ex.healthy, epoch)
	delete(ex.confirms, epoch)
	if len(healthy) == 0 && len(confirms) == 0 {
		// Nothing to fold: skip the (deterministically idempotent) step
		// so empty trailing epochs cost nothing.
		ex.sealsTel.Inc()
		return
	}
	//lint:allow walltime telemetry-only wall timing of the learn fold; never enters evidence
	start := time.Now()
	fps := make(map[*symptoms.FactBase]string, len(healthy))
	for _, fb := range healthy {
		fps[fb] = fb.Fingerprint() // once per base, not twice per comparison
	}
	sort.Slice(healthy, func(i, j int) bool { return fps[healthy[i]] < fps[healthy[j]] })
	for _, fb := range healthy {
		ex.learn.addHealthy(fb)
	}
	sort.Slice(confirms, func(i, j int) bool {
		a, b := confirms[i], confirms[j]
		if a.waveEnd != b.waveEnd {
			return a.waveEnd < b.waveEnd
		}
		if a.inc.Instance != b.inc.Instance {
			return a.inc.Instance < b.inc.Instance
		}
		if a.inc.Query != b.inc.Query {
			return a.inc.Query < b.inc.Query
		}
		if a.inc.Kind != b.inc.Kind {
			return a.inc.Kind < b.inc.Kind
		}
		return a.inc.Subject < b.inc.Subject
	})
	if len(confirms) > 0 {
		incs := make([]service.Incident, len(confirms))
		for i, c := range confirms {
			incs[i] = c.inc
		}
		ex.learn.observe(incs)
	}
	ex.learn.step()
	ex.sealsTel.Inc()
	//lint:allow walltime telemetry-only wall timing of the learn fold; never enters evidence
	ex.learnSec.Observe(time.Since(start).Seconds())
}

// transferIn forwards a mined-entry hit to the learner under the
// exchange lock (called from service workers via onDiagnosis). Author
// sets are frozen at install seals, so the answer is a function of the
// diagnosis's epoch, not of worker scheduling.
func (ex *exchange) transferIn(kind, instance string) bool {
	if ex.disabled {
		return false
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.learn.transferIn(kind, instance)
}

// stats snapshots the learner's lifecycle for the report.
func (ex *exchange) stats() LearnStats {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.learn.stats()
}

// read runs fn on the learner under the exchange lock; scrape-time
// telemetry callbacks use it.
func (ex *exchange) read(fn func(l *learner) float64) float64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return fn(ex.learn)
}
