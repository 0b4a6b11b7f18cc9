package fleet

import (
	"strings"
	"sync"

	"diads/internal/service"
	"diads/internal/symptoms"
)

// ScopedInstance builds the fleet-wide instance ID for a tenant's
// database instance: "tenant/instance". The HTTP ingest path scopes
// every externally posted sample, run, and event this way, so two
// tenants naming an instance "db-1" never collide in the shared
// service's dedup keys, incident registry, or learning loop. A tenant
// ID must not itself contain "/" (SplitScoped's separator); instance
// names may. An empty tenant leaves the instance ID unscoped.
func ScopedInstance(tenant, instance string) string {
	if tenant == "" {
		return instance
	}
	return tenant + "/" + instance
}

// SplitScoped undoes ScopedInstance: it splits a fleet-wide instance ID
// at the first "/" into tenant and bare instance. IDs without a
// separator are unscoped — an empty tenant and the ID itself.
func SplitScoped(id string) (tenant, instance string) {
	if i := strings.IndexByte(id, '/'); i >= 0 {
		return id[:i], id[i+1:]
	}
	return "", id
}

// Learner is the self-locking face of the candidate lifecycle, and the
// one every door drives: the fleet's epoch exchange feeds it at folds,
// the HTTP serving surface after every diagnosis, each with the
// incidents its diagnoses filed. The unexported learner has no locking
// of its own; Learner adds the mutex so folds, API handlers, the
// diagnosis pool's workers, scrapes and an operator's ack can
// interleave safely.
type Learner struct {
	mu sync.Mutex
	l  *learner
}

// NewLearner builds a standalone learner over the shared symptoms
// database.
func NewLearner(cfg LearnConfig, symdb *symptoms.DB) *Learner {
	return &Learner{l: newLearner(cfg, symdb)}
}

// AddHealthy feeds one healthy-period fact base to the miner's
// background filter and the validator's corpus.
func (a *Learner) AddHealthy(fb *symptoms.FactBase) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.l.addHealthy(fb)
}

// Observe routes the confirmed incidents among incs that it has not
// been fed before into the mining/hold-out split, then advances the lifecycle one step (propose → validate →
// review gate).
func (a *Learner) Observe(incs []service.Incident) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.l.observe(incs)
	a.l.step()
}

// Resolve settles a pending candidate by operator decision — accept
// installs a validated candidate into the shared database, reject
// retires it. This is the API behind POST /v1/candidates/{kind}/ack
// and .../reject.
func (a *Learner) Resolve(kind string, accept bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.l.resolve(kind, accept)
}

// Stats snapshots the lifecycle.
func (a *Learner) Stats() LearnStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.l.stats()
}

// transferIn is learner.transferIn under the lock; the fleet's service
// workers call it for every mined entry a diagnosis scores high. Author
// sets change only at folds, so the answer is a function of the
// diagnosis's epoch, not of worker scheduling.
func (a *Learner) transferIn(kind, instance string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.l.transferIn(kind, instance)
}

// read runs fn on the learner under the lock; scrape-time telemetry
// callbacks use it.
func (a *Learner) read(fn func(l *learner) float64) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return fn(a.l)
}
