package dbsys

import (
	"fmt"
	"sort"
	"sync"
)

// Well-known configuration parameter names (PostgreSQL-flavoured).
const (
	ParamWorkMemKB          = "work_mem"
	ParamRandomPageCost     = "random_page_cost"
	ParamSeqPageCost        = "seq_page_cost"
	ParamCPUTupleCost       = "cpu_tuple_cost"
	ParamEffectiveCacheMB   = "effective_cache_size"
	ParamSharedBuffersMB    = "shared_buffers"
	ParamEnableIndexScan    = "enable_indexscan"
	ParamEnableHashJoin     = "enable_hashjoin"
	ParamEnableMergeJoin    = "enable_mergejoin"
	ParamEnableNestLoop     = "enable_nestloop"
	ParamEnableSort         = "enable_sort"
	ParamStatsTargetPerCent = "default_statistics_target"
)

// Params is the database configuration: a set of named numeric parameters
// (booleans are 0/1). The optimizer's plan choice is sensitive to several
// of them, which is what lets Module PD attribute plan changes to
// parameter changes. Params is safe for concurrent use. Every Set gives
// it a new Version.
type Params struct {
	mu      sync.RWMutex
	version uint64
	values  map[string]float64
}

// DefaultParams returns PostgreSQL-like defaults.
func DefaultParams() *Params {
	return &Params{version: nextVersion(), values: map[string]float64{
		ParamWorkMemKB:          4096,
		ParamRandomPageCost:     4.0,
		ParamSeqPageCost:        1.0,
		ParamCPUTupleCost:       0.01,
		ParamEffectiveCacheMB:   1024,
		ParamSharedBuffersMB:    256,
		ParamEnableIndexScan:    1,
		ParamEnableHashJoin:     1,
		ParamEnableMergeJoin:    1,
		ParamEnableNestLoop:     1,
		ParamEnableSort:         1,
		ParamStatsTargetPerCent: 100,
	}}
}

// Get returns the value of a parameter; unknown parameters read as 0.
func (p *Params) Get(name string) float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.values[name]
}

// Bool interprets a parameter as a flag.
func (p *Params) Bool(name string) bool { return p.Get(name) != 0 }

// Set changes a parameter and returns its previous value.
func (p *Params) Set(name string, v float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.values[name]
	p.values[name] = v
	p.version = nextVersion()
	return old
}

// Version names the parameters' current state: it changes on every Set,
// and a Clone starts under its own.
func (p *Params) Version() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.version
}

// Clone returns an independent copy; Module PD replays candidate changes
// against clones to test whether a parameter change explains a plan
// change.
func (p *Params) Clone() *Params {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cp := &Params{version: nextVersion(), values: make(map[string]float64, len(p.values))}
	for k, v := range p.values {
		cp.values[k] = v
	}
	return cp
}

// Names returns the parameter names, sorted.
func (p *Params) Names() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.values))
	for k := range p.values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String implements fmt.Stringer.
func (p *Params) String() string {
	var b []byte
	for i, n := range p.Names() {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%g", n, p.Get(n))...)
	}
	return string(b)
}
