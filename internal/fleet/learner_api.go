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

// Learner is the exported, self-locking face of the candidate
// lifecycle for drivers outside the fleet's epoch exchange — the HTTP
// serving surface in particular. The unexported learner has no locking
// of its own (the exchange drives it under its mutex at epoch folds);
// Learner adds the mutex so API handlers, the diagnosis pool's workers
// and an operator's ack can interleave safely.
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

// Observe routes newly-confirmed incidents into the mining/hold-out
// split, then advances the lifecycle one step (propose → validate →
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
