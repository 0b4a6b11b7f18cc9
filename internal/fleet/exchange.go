package fleet

import (
	"math"
	"slices"
	"sort"
	"sync"

	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
)

// epochOf maps an evidence time onto its learning epoch: epoch k covers
// read-window ends in (k*E, (k+1)*E], E = epochLen. The half-open-below
// shape matches the gates' inclusive release (End <= watermark): when
// the fleet's frontier reaches the boundary (k+1)*E, every epoch-k event
// has been released, so the epoch is complete exactly at its boundary.
func epochOf(t simtime.Time) int64 {
	k := int64(math.Ceil(float64(t)/float64(epochLen))) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// epochDone is the epoch completeThrough reports once nothing below any
// finite evidence time can ever arrive again (every instance finished,
// its tail fully released).
const epochDone = math.MaxInt64

// completeThrough returns the highest epoch the frontier proves
// complete: every event with a read-window end in that epoch has been
// released. The frontier is the minimum watermark over the fleet's live
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
// confirmation gate. The (waveEnd, identity) key gives the fold a total
// order over deposits that is a function of the event stream alone —
// independent of shard count, chunk size, and worker interleaving.
type confirmation struct {
	waveEnd simtime.Time
	inc     service.Incident
}

// healthyDeposit is a healthy-period fact base tagged with its epoch.
type healthyDeposit struct {
	epoch int64
	fb    *symptoms.FactBase
}

// exchange is where the shards' learning contributions meet the
// central learner. Shards deposit healthy-period fact bases and
// confirmed incidents tagged with their evidence-time epoch, from their
// waves and their service workers alike; once every shard has diagnosed
// epoch e, the fleet's loop calls fold(e), which drains the deposits of
// e and earlier into the learner — observe, then step. Installs
// therefore happen between epochs (bumping symptoms.DB.Version, which
// the SD cache key respects), and every diagnosis sees exactly the
// database the epoch ordering dictates — never a mid-wave install.
type exchange struct {
	mu       sync.Mutex
	learn    *learner
	disabled bool

	healthy  []healthyDeposit
	confirms []confirmation

	learnSec *telemetry.Histogram
	folds    *telemetry.Counter
}

func newExchange(cfg LearnConfig, l *learner) *exchange {
	reg := telemetry.Default()
	return &exchange{
		learn:    l,
		disabled: cfg.Disabled,
		learnSec: reg.Histogram("diads_fleet_learn_step_seconds",
			"Wall time of one symptom-learning epoch fold.",
			nil, nil),
		folds: reg.Counter("diads_fleet_epoch_seals_total",
			"Learning epochs folded into the learner.", nil),
	}
}

// depositHealthy records a healthy-period fact base under its epoch.
// Safe from shards and service workers alike.
func (ex *exchange) depositHealthy(epoch int64, fb *symptoms.FactBase) {
	if ex.disabled || fb == nil {
		return
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.healthy = append(ex.healthy, healthyDeposit{epoch, fb})
}

// depositConfirm records a newly-confirmed incident under the epoch of
// its wave.
func (ex *exchange) depositConfirm(c confirmation) {
	if ex.disabled {
		return
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.confirms = append(ex.confirms, c)
}

// fold runs epoch e's learn step over every deposit of e or earlier (an
// earlier one can only be a deposit that arrived after its own epoch
// folded; it joins the next fold rather than vanish): healthy bases
// first (sorted by fingerprint — corpus content is a set, so any
// canonical order works), then confirmations in (waveEnd, instance,
// query, kind, subject) order — the order the event stream alone
// dictates — then one lifecycle step. Installs here bump the shared
// database version; the caller folds only while no shard diagnoses, so
// no diagnosis ever observes a half-applied install.
func (ex *exchange) fold(epoch int64) {
	if ex.disabled {
		return
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.folds.Inc()
	var healthy []*symptoms.FactBase
	ex.healthy = slices.DeleteFunc(ex.healthy, func(d healthyDeposit) bool {
		if d.epoch > epoch {
			return false
		}
		healthy = append(healthy, d.fb)
		return true
	})
	var confirms []confirmation
	ex.confirms = slices.DeleteFunc(ex.confirms, func(c confirmation) bool {
		if epochOf(c.waveEnd) > epoch {
			return false
		}
		confirms = append(confirms, c)
		return true
	})
	if len(healthy) == 0 && len(confirms) == 0 {
		// Nothing to fold: skip the (deterministically idempotent) step.
		return
	}
	span := telemetry.DefaultTracer().Start("fleet", "fleet.fold")
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
	ex.learnSec.Observe(span.End().Seconds())
}

// transferIn forwards a mined-entry hit to the learner under the
// exchange lock (called from service workers via onDiagnosis). Author
// sets change only at folds, so the answer is a function of the
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
