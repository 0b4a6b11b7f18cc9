package dbsys

import (
	"fmt"
	"maps"
	"slices"
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
// it a new version (Settings().Version()).
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

// Set changes a parameter and returns its previous value. It writes a
// new value map, so every Settings already read keeps the old one.
func (p *Params) Set(name string, v float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.values[name]
	p.values = maps.Clone(p.values)
	p.values[name] = v
	p.version = nextVersion()
	return old
}

// Settings returns the parameters' current state, read under one lock.
// It stays that state however the parameters change later.
func (p *Params) Settings() Settings {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return Settings{version: p.version, values: p.values}
}

// Names returns the parameter names, sorted.
func (p *Params) Names() []string { return slices.Sorted(maps.Keys(p.Settings().values)) }

// String implements fmt.Stringer.
func (p *Params) String() string { return p.Settings().String() }

// Settings is one state of a parameter set. With lays a hypothetical
// value over one parameter, so Module PD replays a parameter change
// without a copy of the set.
type Settings struct {
	version uint64
	values  map[string]float64 // never written once read
	// name, when set, is a parameter that reads as value.
	name  string
	value float64
}

// Version is the parameters' version the settings were read at; settings
// with a value laid over them (With) are unversioned, 0.
func (s Settings) Version() uint64 { return s.version }

// With returns the settings with the named parameter reading v.
func (s Settings) With(name string, v float64) Settings {
	s.version, s.name, s.value = 0, name, v
	return s
}

// Get returns the value of a parameter; unknown parameters read as 0.
func (s Settings) Get(name string) float64 {
	if s.name != "" && name == s.name {
		return s.value
	}
	return s.values[name]
}

// Bool interprets a parameter as a flag.
func (s Settings) Bool(name string) bool { return s.Get(name) != 0 }

// String implements fmt.Stringer: name=value pairs in name order.
func (s Settings) String() string {
	var b []byte
	for i, n := range slices.Sorted(maps.Keys(s.values)) {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%g", n, s.Get(n))...)
	}
	return string(b)
}
