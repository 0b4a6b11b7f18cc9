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

// confirmation is one confirmed incident a diagnosis filed: the
// incident snapshot just after that diagnosis, tagged with the end of
// the wave it belonged to. A wave holds at most one event per incident,
// so the snapshot is the incident as the wave left it. The (waveEnd,
// identity) key gives the fold a total order over deposits that is a
// function of the event stream alone — independent of shard count,
// chunk size, and worker interleaving — and the learner keeps the first
// snapshot of each incident it is fed, the one from the wave where the
// incident crossed the confirmation gate.
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
// e and earlier into the learner — the same self-locking Learner, fed
// through the same AddHealthy and Observe, as the HTTP node's. Installs
// therefore happen between epochs (bumping symptoms.DB.Version), and
// every diagnosis sees exactly the database the epoch ordering dictates
// — never a mid-wave install.
type exchange struct {
	learn *Learner

	mu       sync.Mutex // guards the deposits
	healthy  []healthyDeposit
	confirms []confirmation

	learnSec *telemetry.Histogram
	folds    *telemetry.Counter
}

func newExchange(l *Learner) *exchange {
	reg := telemetry.Default()
	return &exchange{
		learn: l,
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
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.healthy = append(ex.healthy, healthyDeposit{epoch, fb})
}

// depositConfirm records a confirmed incident under the epoch of its
// wave.
func (ex *exchange) depositConfirm(c confirmation) {
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
// dictates — through one Observe, which also steps the lifecycle.
// Installs here bump the shared database version; the caller folds
// only while no shard diagnoses, so no diagnosis ever observes a
// half-applied install.
func (ex *exchange) fold(epoch int64) {
	ex.folds.Inc()
	ex.mu.Lock()
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
	ex.mu.Unlock()
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
		ex.learn.AddHealthy(fb)
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
	incs := make([]service.Incident, len(confirms))
	for i, c := range confirms {
		incs[i] = c.inc
	}
	ex.learn.Observe(incs)
	ex.learnSec.Observe(span.End().Seconds())
}
