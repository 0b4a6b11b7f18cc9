// Package opt implements the cost-based query optimizer substrate. DIADS
// itself never optimizes queries, but Module PD needs an optimizer to
// (a) detect that the plan executed for a query changed between
// satisfactory and unsatisfactory runs and (b) replay candidate
// configuration/schema changes to pinpoint which one caused the change
// ("plan-change analysis"). Module IA's cost-model implementation also
// reuses the cost functions here.
package opt

import (
	"fmt"
	"math"
	"sync"

	"diads/internal/dbsys"
	"diads/internal/plan"
)

// Optimizer chooses execution plans from catalog statistics and
// configuration parameters, PostgreSQL-style. It is safe for concurrent
// use.
type Optimizer struct {
	// Cat supplies index availability; statistics come from the snapshot
	// passed to each call so that PD can replay historical states.
	Cat *dbsys.Catalog

	mu   sync.Mutex
	memo map[string]memoized // by query
}

// stateKey names the state a plan was chosen under: a plan is a function
// of the catalog, the parameters and the statistics, and each version
// names one state of one object.
type stateKey struct{ cat, params, stats uint64 }

// memoized is the last plan PlanQuery chose for a query.
type memoized struct {
	key  stateKey
	plan *plan.Plan
}

// New returns an optimizer over the given catalog.
func New(cat *dbsys.Catalog) *Optimizer { return &Optimizer{Cat: cat} }

// PlanQuery chooses the cheapest plan for the named query under the given
// statistics snapshot and parameters. Supported queries: Q2 (with access
// path and join strategy enumeration), Q5, Q6, Q14 (fixed shapes).
//
// Plans are memoised on (query, catalog, params and stats versions), at
// most one per query: a periodic query re-plans only after a catalog,
// parameter or statistics change, and a change replaces the entry. The
// returned plan is shared by every caller asking under the same state and
// must not be modified (plans are immutable once built). Unversioned
// (hand-built) statistics bypass the memo.
func (o *Optimizer) PlanQuery(query string, stats dbsys.Stats, params *dbsys.Params) (*plan.Plan, error) {
	key := stateKey{o.Cat.Version(), params.Version(), stats.Version()}
	if key.stats == 0 {
		return o.plan(query, stats, params)
	}
	o.mu.Lock()
	m, ok := o.memo[query]
	o.mu.Unlock()
	if ok && m.key == key {
		return m.plan, nil
	}
	p, err := o.plan(query, stats, params)
	if err != nil {
		return nil, err
	}
	// A mutation that raced the planning leaves the plan unmemoised: it
	// may mix two states.
	if o.Cat.Version() == key.cat && params.Version() == key.params {
		o.mu.Lock()
		if o.memo == nil {
			o.memo = make(map[string]memoized)
		}
		o.memo[query] = memoized{key, p}
		o.mu.Unlock()
	}
	return p, nil
}

// plan chooses the plan without consulting the memo.
func (o *Optimizer) plan(query string, stats dbsys.Stats, params *dbsys.Params) (*plan.Plan, error) {
	switch query {
	case "Q2":
		return o.planQ2(stats, params)
	case "Q5":
		p := plan.BuildQ5()
		plan.EstimateInto(p, stats.RowsOf)
		return p, nil
	case "Q6":
		p := plan.BuildQ6()
		plan.EstimateInto(p, stats.RowsOf)
		return p, nil
	case "Q14":
		p := plan.BuildQ14()
		plan.EstimateInto(p, stats.RowsOf)
		return p, nil
	default:
		return nil, fmt.Errorf("opt: unknown query %q", query)
	}
}

// planQ2 enumerates the Q2 decision points and picks the cheapest
// combination. Parameters that leave no candidate a finite cost (a
// posted cpu_tuple_cost of 1e308, say) are an error, not a plan.
func (o *Optimizer) planQ2(stats dbsys.Stats, params *dbsys.Params) (*plan.Plan, error) {
	indexEnabled := params.Bool(dbsys.ParamEnableIndexScan)
	seqScan := plan.AccessSpec{Type: plan.OpSeqScan}
	// access is the preferred read of table: the index scan on column
	// when such an index is available and allowed, else a sequential scan.
	access := func(table, column string) plan.AccessSpec {
		if indexEnabled {
			if ix, ok := o.Cat.IndexOn(table, column); ok {
				return plan.AccessSpec{Type: plan.OpIndexScan, Index: ix.Name}
			}
		}
		return seqScan
	}
	// The alternatives for an enumerated table: its index scan, if any,
	// then the sequential scan.
	alternatives := func(dst []plan.AccessSpec, preferred plan.AccessSpec) []plan.AccessSpec {
		if preferred != seqScan {
			dst = append(dst, preferred)
		}
		return append(dst, seqScan)
	}

	var partBuf, psBuf [2]plan.AccessSpec
	partAlts := alternatives(partBuf[:0], access(dbsys.TPart, "p_type"))
	psAlts := alternatives(psBuf[:0], access(dbsys.TPartsupp, "ps_partkey"))
	// Tiny-table lookups are not worth enumerating: use the index when
	// it is available and allowed, else a sequential scan.
	nationAccess := access(dbsys.TNation, "n_nationkey")
	supplierAccess := access(dbsys.TSupplier, "s_suppkey")
	var joinBuf [2]plan.OpType
	joins := joinBuf[:0]
	if params.Bool(dbsys.ParamEnableHashJoin) {
		joins = append(joins, plan.OpHashJoin)
	}
	if params.Bool(dbsys.ParamEnableNestLoop) || len(joins) == 0 {
		joins = append(joins, plan.OpNestedLoop)
	}

	// Each candidate is built into one scratch tree and priced there;
	// only the winner is built to keep.
	pr := o.pricer(stats, params)
	var scratch plan.Q2Scratch
	var best plan.Q2Choices
	found := false
	bestCost := math.Inf(1)
	for _, pa := range partAlts {
		for _, ma := range psAlts {
			for _, sa := range psAlts {
				for _, j := range joins {
					ch := plan.Q2Choices{
						PartAccess:        pa,
						PartsuppAccess:    ma,
						SubPartsuppAccess: sa,
						SubNationAccess:   nationAccess,
						SubSupplierAccess: supplierAccess,
						MainJoin:          j,
					}
					cost := pr.price(scratch.Build(ch))
					if cost < bestCost {
						bestCost = cost
						best, found = ch, true
					}
				}
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("opt: no Q2 plan has a finite cost under %s", params)
	}
	p := plan.BuildQ2(best)
	plan.EstimateInto(p, stats.RowsOf)
	return p, nil
}
