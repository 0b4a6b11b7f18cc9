// Package exec simulates query execution against the database and SAN
// substrates. For every run of a plan it produces the exact signal the
// paper's DIADS prototype collected from its instrumented PostgreSQL:
// per-operator start/stop times and record counts (estimated and actual),
// plus database-level counters (buffer hits, blocks read, lock waits).
//
// Timing model. Operators are scheduled depth-first with a running time
// cursor: a node's children execute sequentially inside its interval and
// its own work follows them, so ancestor intervals cover descendant
// intervals. Leaf I/O times come from the SAN performance model evaluated
// at the simulated moment the leaf runs, which is how storage contention
// during a run inflates exactly the leaf operators reading the contended
// volume — and, through interval nesting, their ancestors ("event
// propagation" in the paper). Blocking build operators (Hash, Materialize,
// Aggregate) record their own build cost only; everything else records
// inclusive elapsed time.
package exec

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"diads/internal/dbsys"
	"diads/internal/plan"
	"diads/internal/sanperf"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// CPU cost coefficients, in seconds per row processed.
const (
	cpuTuple   = 2.0e-6
	cpuCompare = 2.0e-6 // per comparison in sorts
	cpuJoinRow = 1.5e-6
	cpuHashRow = 1.5e-6
	cpuAggRow  = 1.0e-6
	cpuMatRow  = 0.5e-6
)

// warmLoopMissFactor is the fraction of the cold-cache miss ratio that
// repeated executions of a subplan leaf still pay: the first loop faults
// pages in, later loops mostly hit.
const warmLoopMissFactor = 0.25

// Engine executes plans against the substrates.
type Engine struct {
	Cat    *dbsys.Catalog
	Params *dbsys.Params
	Cache  *dbsys.CacheModel
	Locks  *dbsys.LockManager
	SAN    *sanperf.Model
	// Server is the database server component in the SAN topology.
	Server topology.ID
	// StatsBase is the statistics snapshot current at "ANALYZE time";
	// AbsRows leaves scale with actual growth relative to it.
	StatsBase dbsys.Stats
	// CPULoad carries external CPU utilization (0..1) on the server under
	// key "cpu"; query CPU work slows by 1/(1-load).
	CPULoad *sanperf.Timeline
	// Rnd drives measurement noise.
	Rnd *simtime.Rand
	// NoiseSigma is the base log-normal sigma applied to each operator's
	// own time.
	NoiseSigma float64
	// TableNoise adds per-table extra noise sigma for leaf operators
	// (e.g. the CPU-cache-sensitive part index scan of the paper's O4
	// false positive).
	TableNoise map[string]float64
	// RecordLoad controls whether runs feed their own I/O back into the
	// SAN model so volume metrics reflect query activity.
	RecordLoad bool
	// OnRunComplete, when non-nil, is invoked synchronously with every
	// completed run record, after its load feedback has been applied. It
	// is the streaming tap the online monitor attaches to; the callback
	// must not retain the engine's locks (it receives only the record)
	// and should return quickly since it runs on the execution path.
	OnRunComplete func(*RunRecord)
}

// OpRun is the monitoring data for one operator in one run: only what
// the run measured. The operator's type, table and estimate are its plan
// node's (RunRecord.Plan.Node(ID)), which every run of the plan shares.
type OpRun struct {
	ID       int
	Start    simtime.Time
	Stop     simtime.Time
	Recorded simtime.Duration // the t(Oi) DIADS analyzes
	ActRows  float64
	PhysIO   float64
	CacheHit float64
	IOTime   simtime.Duration
	LockWait simtime.Duration
}

// RunRecord is the monitoring data for one complete run of a plan.
type RunRecord struct {
	Query    string
	RunID    string
	PlanSig  string
	Plan     *plan.Plan
	Start    simtime.Time
	Stop     simtime.Time
	Ops      []OpRun // one per ID, ascending; an engine run's Ops[i].ID == i+1
	PhysIO   float64
	CacheHit float64
	LockWait simtime.Duration
	SeqScans int
	IdxScans int
}

// Duration returns the total run time t(P).
func (r *RunRecord) Duration() simtime.Duration { return r.Stop.Sub(r.Start) }

// Window returns the run's execution interval [Start, Stop).
func (r *RunRecord) Window() simtime.Interval { return simtime.NewInterval(r.Start, r.Stop) }

// EndsBefore reports whether the run completed strictly before the
// evidence horizon. This is the retention predicate for run histories:
// a record that ends before the low watermark can never appear in a
// future slowdown event's snapshot (event windows start at remembered
// runs, all of which begin at or after the unpadded watermark), so it
// may be dropped. Consumers holding their own pointers — the monitor's
// history ring, already-minted events — are unaffected by a holder
// trimming its slice.
func (r *RunRecord) EndsBefore(horizon simtime.Time) bool { return r.Stop < horizon }

// Op returns the OpRun for the given operator ID, or nil if the run has
// none. Dense IDs index directly; a posted run's IDs may have gaps, so
// Op falls back to a binary search.
func (r *RunRecord) Op(id int) *OpRun {
	if i := id - 1; i >= 0 && i < len(r.Ops) && r.Ops[i].ID == id {
		return &r.Ops[i]
	}
	i, ok := sort.Find(len(r.Ops), func(i int) int { return cmp.Compare(id, r.Ops[i].ID) })
	if !ok {
		return nil
	}
	return &r.Ops[i]
}

// Run executes p starting at start and returns its monitoring record.
func (e *Engine) Run(p *plan.Plan, start simtime.Time, runID string) (*RunRecord, error) {
	if len(p.Nodes()) == 0 {
		return nil, fmt.Errorf("exec: empty plan %q", p.Query)
	}
	actual := plan.Cardinality(p, e.actualRows, e.absScale)

	rec := &RunRecord{
		Query:   p.Query,
		RunID:   runID,
		PlanSig: p.Signature(),
		Plan:    p,
		Start:   start,
		Ops:     make([]OpRun, len(p.Nodes())),
	}

	cursor := start
	var walk func(n *plan.Node) simtime.Duration
	walk = func(n *plan.Node) simtime.Duration {
		// Plan IDs are dense pre-order 1..n.
		op := &rec.Ops[n.ID-1]
		*op = OpRun{
			ID:      n.ID,
			Start:   cursor,
			ActRows: actual.Total[n.ID],
		}

		var childTotal simtime.Duration
		for _, ch := range n.Children {
			childTotal += walk(ch)
		}
		for _, s := range n.SubPlans {
			childTotal += walk(s)
		}

		own := e.ownTime(n, actual, cursor, op, rec)
		own = simtime.Duration(e.noisy(float64(own), n))
		cursor = cursor.Add(own)

		op.Stop = cursor
		inclusive := childTotal + own
		if n.Type.IsBlockingBuild() {
			op.Recorded = own
		} else {
			op.Recorded = inclusive
		}
		return inclusive
	}
	total := walk(p.Root)
	rec.Stop = start.Add(total)

	for i := range rec.Ops {
		op := &rec.Ops[i]
		rec.PhysIO += op.PhysIO
		rec.CacheHit += op.CacheHit
		rec.LockWait += op.LockWait
	}
	if e.RecordLoad {
		e.feedBackLoad(rec)
	}
	if e.OnRunComplete != nil {
		e.OnRunComplete(rec)
	}
	return rec, nil
}

// actualRows reads live table cardinality from the catalog.
func (e *Engine) actualRows(table string) int64 {
	t, ok := e.Cat.Table(table)
	if !ok {
		return 0
	}
	return t.Rows
}

// absScale is actual rows / statistics-snapshot rows, the growth factor
// applied to fixed-fanout (AbsRows) leaves.
func (e *Engine) absScale(table string) float64 {
	base := e.StatsBase.RowsOf(table)
	if base <= 0 {
		return 1
	}
	return float64(e.actualRows(table)) / float64(base)
}

// cpuFactor is the slowdown of CPU work from external server load.
func (e *Engine) cpuFactor(t simtime.Time) float64 {
	if e.CPULoad == nil {
		return 1
	}
	load := math.Min(e.CPULoad.At("cpu", t), 0.85)
	if load <= 0 {
		return 1
	}
	return 1 / (1 - load)
}

// noisy applies measurement noise to an operator's own time.
func (e *Engine) noisy(sec float64, n *plan.Node) float64 {
	if e.Rnd == nil || sec <= 0 {
		return sec
	}
	sigma := e.NoiseSigma
	if n.IsLeaf() && e.TableNoise != nil {
		sigma += e.TableNoise[n.Table]
	}
	if sigma <= 0 {
		return sec
	}
	return e.Rnd.Jitter(sec, sigma)
}

// ownTime computes the operator's own work duration at time t, filling in
// the op's I/O accounting.
func (e *Engine) ownTime(n *plan.Node, cards plan.Cardinalities, t simtime.Time, op *OpRun, rec *RunRecord) simtime.Duration {
	cf := e.cpuFactor(t)
	loops := cards.Loops[n.ID]
	switch n.Type {
	case plan.OpSeqScan:
		rec.SeqScans++
		return e.seqScanTime(n, t, cf, loops, op)
	case plan.OpIndexScan:
		rec.IdxScans++
		return e.indexScanTime(n, cards, t, cf, op)
	case plan.OpSort:
		rows := cards.Total[n.ID]
		per := math.Log2(rows/math.Max(1, loops) + 2)
		return simtime.Duration(rows * per * cpuCompare * cf)
	case plan.OpHash:
		return simtime.Duration(cards.Total[n.ID] * cpuHashRow * cf)
	case plan.OpMaterialize:
		return simtime.Duration(cards.Total[n.ID] * cpuMatRow * cf)
	case plan.OpAggregate:
		var in float64
		for _, ch := range n.Children {
			in += cards.Total[ch.ID]
		}
		return simtime.Duration(in * cpuAggRow * cf)
	case plan.OpHashJoin, plan.OpMergeJoin, plan.OpNestedLoop:
		var in float64
		for _, ch := range n.Children {
			in += cards.Total[ch.ID]
		}
		return simtime.Duration(in * cpuJoinRow * cf)
	default: // Limit
		return simtime.Duration(cards.Total[n.ID] * cpuTuple * cf * 0.1)
	}
}

// seqScanTime models a full relation scan: every page read sequentially,
// misses going to the SAN.
func (e *Engine) seqScanTime(n *plan.Node, t simtime.Time, cf, loops float64, op *OpRun) simtime.Duration {
	tbl, ok := e.Cat.Table(n.Table)
	if !ok {
		return 0
	}
	vol, err := e.Cat.VolumeOf(n.Table)
	if err != nil {
		return 0
	}
	miss := e.Cache.MissRatio(tbl, false)
	pages := float64(tbl.Pages())
	if loops > 1 {
		// Repeated scans enjoy warm caches for the re-reads.
		pages = pages * (1 + warmLoopMissFactor*(loops-1))
	}
	physIO := pages * miss
	resp := float64(e.SAN.ReadResponse(vol, t, true))
	ioTime := physIO * resp
	cpuTime := float64(tbl.Rows) * loops * cpuTuple * cf
	wait := e.Locks.WaitTime(n.Table, t)

	op.PhysIO += physIO
	op.CacheHit += pages - physIO
	op.IOTime += simtime.Duration(ioTime)
	op.LockWait += wait
	return simtime.Duration(ioTime+cpuTime) + wait
}

// indexScanTime models an index lookup: a B-tree descent plus heap
// fetches, with randomness governed by the index's correlation and cache
// warm-up across loops.
func (e *Engine) indexScanTime(n *plan.Node, cards plan.Cardinalities, t simtime.Time, cf float64, op *OpRun) simtime.Duration {
	tbl, ok := e.Cat.Table(n.Table)
	if !ok {
		return 0
	}
	vol, err := e.Cat.VolumeOf(n.Table)
	if err != nil {
		return 0
	}
	loops := math.Max(1, cards.Loops[n.ID])
	matches := cards.Total[n.ID] // across all loops
	miss := e.Cache.MissRatio(tbl, true)
	// Warm-up: only the first loop pays the full miss ratio.
	effMiss := miss * (warmLoopMissFactor + (1-warmLoopMissFactor)/loops)

	corr := 0.5
	if ix, ok := e.Cat.Index(n.Index); ok {
		corr = ix.Correlation
	}
	descents := loops * math.Log2(float64(tbl.Pages())+2) * 0.1 * effMiss
	fetches := matches*effMiss + descents
	randFrac := 1 - corr
	respRand := float64(e.SAN.ReadResponse(vol, t, false))
	respSeq := float64(e.SAN.ReadResponse(vol, t, true))
	ioTime := fetches * (randFrac*respRand + (1-randFrac)*respSeq)
	cpuTime := matches * cpuTuple * cf
	wait := e.Locks.WaitTime(n.Table, t)

	op.PhysIO += fetches
	op.CacheHit += matches - matches*effMiss
	op.IOTime += simtime.Duration(ioTime)
	op.LockWait += wait
	return simtime.Duration(ioTime+cpuTime) + wait
}

// feedBackLoad converts the run's leaf I/O into SAN load segments so the
// monitoring series show the query's own activity on its volumes.
func (e *Engine) feedBackLoad(rec *RunRecord) {
	for i := range rec.Ops {
		op := &rec.Ops[i]
		n, ok := rec.Plan.Node(op.ID)
		if !ok || op.PhysIO <= 0 || n.Table == "" {
			continue
		}
		vol, err := e.Cat.VolumeOf(n.Table)
		if err != nil {
			continue
		}
		dur := op.Stop.Sub(op.Start)
		if dur <= 0 {
			continue
		}
		iops := op.PhysIO / float64(dur)
		// Sequentiality of the fed-back load mirrors the access pattern:
		// full scans are sequential; index fetches are sequential to the
		// extent of the index's correlation.
		seq := 1.0
		if n.Type == plan.OpIndexScan {
			seq = 0.5
			if ix, found := e.Cat.Index(n.Index); found {
				seq = ix.Correlation
			}
		}
		e.SAN.AddLoad(sanperf.Load{
			Volume:   vol,
			Iv:       simtime.NewInterval(op.Start, op.Stop),
			ReadIOPS: iops,
			SeqFrac:  seq,
			Source:   rec.RunID,
		})
	}
}
