package diag

import (
	"cmp"
	"maps"
	"slices"
	"strconv"
	"sync"

	"diads/internal/apg"
	"diads/internal/metrics"
	"diads/internal/symptoms"
	"diads/internal/topology"
)

// BuildFacts converts the workflow's module outputs, the configuration
// change log, and the plan's structure into the fact base Module SD
// evaluates the symptoms database against. Fact names follow the
// conventions the built-in database references (see symptoms.Builtin).
func BuildFacts(in *Input, g *apg.APG, pd *PDResult, co *COResult, da *DAResult, cr *CRResult) *symptoms.FactBase {
	// Size the builder for the most calls the code below can make.
	events := in.Cfg.Log.All()
	n := 3 + 2*len(events)
	if co != nil {
		n += len(co.Scores) + 2*len(g.Volumes()) + 1 + len(g.Tables()) + 1
	}
	if da != nil {
		n += 3 * len(da.Scores)
	}
	if cr != nil {
		n += len(cr.TableScores)
	}
	fb := symptoms.NewFactBuilder(n)
	if pd != nil && pd.Changed {
		fb.Add(1, "plan-changed")
	}
	if unsat := in.unsatisfactoryRuns(); len(unsat) > 0 {
		fb.AddTimed(1, unsat[0].Start, "first-unsat-run")
	}

	if co != nil {
		for _, s := range co.Scores {
			fb.Add(s.Score, "op-anomaly:O", strconv.Itoa(s.ID))
		}
		addCOSStructureFacts(fb, g, co)
	}

	if da != nil {
		for _, s := range da.Scores {
			fb.Add(s.Score, "metric-anomaly:", s.Component, ":", string(s.Metric))
		}
		addComponentFacts(fb, da)
		addDerivedDAFacts(fb, in, da)
	}

	if cr != nil {
		for _, table := range sortedKeys(cr.TableScores) {
			fb.Add(cr.TableScores[table], "record-anomaly:", table)
		}
	}

	addEventFacts(fb, in, events)
	addCPULevelFact(fb, in)
	return fb.Build()
}

// sortedKeys returns m's keys in order: facts are added in one order
// whatever the map's.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := slices.AppendSeq(make([]K, 0, len(m)), maps.Keys(m))
	slices.Sort(keys)
	return keys
}

// addComponentFacts records each component's highest metric anomaly. A
// component's scores are adjacent in DA's sorted Scores, so it folds
// them, call by call as the builder would, into one Add.
func addComponentFacts(fb *symptoms.FactBuilder, da *DAResult) {
	for i := 0; i < len(da.Scores); {
		c, score := da.Scores[i].Component, da.Scores[i].Score
		for i++; i < len(da.Scores) && da.Scores[i].Component == c; i++ {
			if !symptoms.AddKeeps(score, da.Scores[i].Score) {
				score = da.Scores[i].Score
			}
		}
		fb.Add(score, "component-anomaly:", c)
	}
}

// addCPULevelFact records the absolute CPU utilization level during the
// unsatisfactory runs (0..1). Anomaly scores alone cannot distinguish
// "CPU is a bit higher because runs last longer" from genuine saturation;
// the level can.
func addCPULevelFact(fb *symptoms.FactBuilder, in *Input) {
	_, unsat := in.windows()
	vals := in.Store.WindowMeans(string(in.Server), metrics.SrvCPUUsagePct, unsat, make([]float64, 0, 64))
	if len(vals) == 0 {
		return
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	fb.Add(sum/float64(len(vals))/100, "cpu-level:", string(in.Server))
}

// addCOSStructureFacts derives the structural COS facts: per-volume and
// per-pool leaf fractions, per-table leaf maxima, and the interior share.
func addCOSStructureFacts(fb *symptoms.FactBuilder, g *apg.APG, co *COResult) {
	// Per-volume: what fraction of the volume's leaf operators are in
	// the COS? (The paper's "only one out of 7 leaf operators using V2".)
	// A pool's fact is its volumes' highest non-zero fraction, which
	// adding it once per volume yields (re-adding keeps the higher score).
	var anyFrac float64
	for _, vol := range g.Volumes() {
		leaves, inCOS := 0, 0
		for _, leaf := range g.Leaves() {
			if leaf.Volume == vol {
				leaves++
				if co.InCOS(leaf.ID) {
					inCOS++
				}
			}
		}
		frac := float64(inCOS) / float64(leaves)
		fb.Add(frac, "cos-leaf-frac:", string(vol))
		if frac > anyFrac {
			anyFrac = frac
		}
		if frac > 0 {
			fb.Add(frac, "cos-leaf-frac-pool:", string(g.Cfg.PoolOf(vol)))
		}
	}
	fb.Add(anyFrac, "cos-leaf-frac-any")

	// Per-table: the highest anomaly score among the table's leaves.
	for _, table := range g.Tables() {
		var max float64
		for _, leaf := range g.Leaves() {
			if leaf.Table != table {
				continue
			}
			if s := co.ScoreOf(leaf.ID); s > max {
				max = s
			}
		}
		fb.Add(max, "cos-table:", table)
	}

	// Interior share of the COS (a CPU-pressure hint).
	if len(co.COS) > 0 {
		interior := 0
		for _, id := range co.COS {
			if n, ok := g.Plan.Node(id); ok && !n.IsLeaf() {
				interior++
			}
		}
		fb.Add(float64(interior)/float64(len(co.COS)), "cos-interior-frac")
	}
}

// addDerivedDAFacts lifts component-level DA scores into the aggregate
// facts the symptoms database references.
func addDerivedDAFacts(fb *symptoms.FactBuilder, in *Input, da *DAResult) {
	for _, s := range da.Scores {
		comp, ok := in.Cfg.Get(topology.ID(s.Component))
		if !ok {
			// Database pseudo-component.
			switch {
			case s.Component == apg.DBComponent && s.Metric == metrics.DBLockWaitTime:
				fb.Add(s.Score, "lock-anomaly:db")
			case s.Component == apg.DBComponent && s.Metric == metrics.DBLocksHeld:
				fb.Add(s.Score, "locks-held-high")
			case s.Component == apg.DBComponent && s.Metric == metrics.DBBlocksRead:
				fb.Add(s.Score, "buffer-miss-anomaly")
			}
			continue
		}
		switch comp.Kind {
		case topology.KindVolume:
			// The strongest total-I/O anomaly among the *other* volumes
			// of its pool. External contention shows up here; a database
			// whose own I/O grew does not.
			if s.Metric == metrics.StTotalIOs {
				var max float64
				for _, sib := range in.Cfg.AppendSharingVolumes(make([]topology.ID, 0, 8), topology.ID(s.Component)) {
					if sc := da.ScoreOf(string(sib), metrics.StTotalIOs); sc > max {
						max = sc
					}
				}
				fb.Add(max, "other-volume-load-increase:", s.Component)
			}
		case topology.KindPool:
			if s.Metric == metrics.StTotalIOs {
				fb.Add(s.Score, "pool-load-increase:", s.Component)
			}
		case topology.KindDisk:
			pool := in.Cfg.PoolOf(topology.ID(s.Component))
			if pool != "" {
				fb.Add(s.Score, "disk-anomaly-in-pool:", string(pool))
			}
		case topology.KindServer:
			if s.Metric == metrics.SrvCPUUsagePct {
				fb.Add(s.Score, "cpu-anomaly:", s.Component)
			}
		}
	}
}

// addEventFacts records configuration and system events as timed facts,
// plus the derived pool-level facts (a volume created in pool P, a LUN
// mapping added for a volume of pool P).
func addEventFacts(fb *symptoms.FactBuilder, in *Input, events []topology.Event) {
	for _, ev := range events {
		fb.AddTimed(1, ev.T, "event:", string(ev.Kind), ":", string(ev.Subject))
		switch ev.Kind {
		case topology.EvVolumeCreated:
			if pool := in.Cfg.PoolOf(ev.Subject); pool != "" {
				fb.AddTimed(1, ev.T, "new-volume-in-pool:", string(pool))
			}
		case topology.EvLUNMapped, topology.EvZoneCreated:
			if pool := in.Cfg.PoolOf(ev.Subject); pool != "" {
				fb.AddTimed(1, ev.T, "new-mapping-in-pool:", string(pool))
			}
		case topology.EvRAIDRebuildStart:
			fb.AddTimed(1, ev.T, "raid-rebuild:", string(ev.Subject))
		case topology.EvDiskFailed:
			if pool := in.Cfg.PoolOf(ev.Subject); pool != "" {
				fb.AddTimed(1, ev.T, "disk-failed-in-pool:", string(pool))
			}
		case topology.EvDMLBatch:
			fb.AddTimed(1, ev.T, "dml-event:", string(ev.Subject))
		}
	}
}

// Bindings enumerates the subjects the symptoms database entries are
// instantiated against: every volume on the plan's dependency paths (and
// their disk-sharing neighbours), every pool those volumes belong to,
// every base table of the plan, and the database server.
func Bindings(in *Input, g *apg.APG) []symptoms.Binding {
	return appendBindings(nil, in, g)
}

// bindingScratch recycles Module SD's bindings, and their Vars maps,
// across diagnoses: a cause instance keeps only a binding's Subject, a
// topology or table name the binding never owned.
var bindingScratch = sync.Pool{New: func() any { return new([]symptoms.Binding) }}

// appendBindings appends Bindings(in, g) to the empty dst, reusing the
// Vars maps an earlier call left in dst's spare capacity.
func appendBindings(dst []symptoms.Binding, in *Input, g *apg.APG) []symptoms.Binding {
	out := slices.Grow(dst, 2*len(g.Volumes())+len(g.Tables())+2)
	var volBuf, poolBuf [16]topology.ID    // a plan reaches a few of each
	vols, pools := volBuf[:0], poolBuf[:0] // bound so far
	var vars map[string]string
	addVolume := func(vol topology.ID) {
		if slices.Contains(vols, vol) {
			return
		}
		vols = append(vols, vol)
		pool := in.Cfg.PoolOf(vol)
		out, vars = addBinding(out, symptoms.ScopeVolume, string(vol))
		vars["$V"], vars["$P"] = string(vol), string(pool)
		if pool != "" && !slices.Contains(pools, pool) {
			pools = append(pools, pool)
			out, vars = addBinding(out, symptoms.ScopePool, string(pool))
			vars["$P"] = string(pool)
		}
	}
	for _, vol := range g.Volumes() {
		addVolume(vol)
		for _, neighbour := range in.Cfg.AppendSharingVolumes(make([]topology.ID, 0, 8), vol) {
			addVolume(neighbour)
		}
	}
	for _, table := range g.Tables() {
		out, vars = addBinding(out, symptoms.ScopeTable, table)
		vars["$T"] = table
	}
	out, vars = addBinding(out, symptoms.ScopeServer, string(in.Server))
	vars["$S"] = string(in.Server)
	out, _ = addBinding(out, symptoms.ScopeGlobal, in.Query)
	return out
}

// addBinding appends a binding of scope to subject and returns its
// empty Vars map: the one an earlier call left in the slot, cleared, or
// a new one.
func addBinding(out []symptoms.Binding, scope symptoms.Scope, subject string) ([]symptoms.Binding, map[string]string) {
	out = slices.Grow(out, 1)[:len(out)+1]
	b := &out[len(out)-1]
	if b.Vars == nil {
		b.Vars = make(map[string]string, 2)
	} else {
		clear(b.Vars)
	}
	b.Scope, b.Subject = scope, subject
	return out, b.Vars
}
