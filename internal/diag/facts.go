package diag

import (
	"cmp"
	"maps"
	"slices"
	"strconv"

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
	fb := symptoms.NewFactBase()

	if pd != nil && pd.Changed {
		fb.Add("plan-changed", 1)
	}
	if unsat := in.unsatisfactoryRuns(); len(unsat) > 0 {
		fb.AddTimed("first-unsat-run", 1, unsat[0].Start)
	}

	if co != nil {
		for _, s := range co.Scores {
			fb.Add("op-anomaly:O"+strconv.Itoa(s.ID), s.Score)
		}
		addCOSStructureFacts(fb, g, co)
	}

	if da != nil {
		for _, s := range da.Scores {
			fb.Add("metric-anomaly:"+s.Component+":"+string(s.Metric), s.Score)
			fb.Add("component-anomaly:"+s.Component, s.Score)
		}
		addDerivedDAFacts(fb, in, da)
	}

	if cr != nil {
		for _, table := range sortedKeys(cr.TableScores) {
			fb.Add("record-anomaly:"+table, cr.TableScores[table])
		}
	}

	addEventFacts(fb, in)
	addCPULevelFact(fb, in)
	return fb
}

// sortedKeys returns m's keys in order: facts are added in one order
// whatever the map's.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := slices.AppendSeq(make([]K, 0, len(m)), maps.Keys(m))
	slices.Sort(keys)
	return keys
}

// addCPULevelFact records the absolute CPU utilization level during the
// unsatisfactory runs (0..1). Anomaly scores alone cannot distinguish
// "CPU is a bit higher because runs last longer" from genuine saturation;
// the level can.
func addCPULevelFact(fb *symptoms.FactBase, in *Input) {
	vals := in.Store.WindowMeans(string(in.Server), metrics.SrvCPUUsagePct, ReadWindows(in.unsatisfactoryRuns()), nil)
	if len(vals) == 0 {
		return
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	fb.Add("cpu-level:"+string(in.Server), sum/float64(len(vals))/100)
}

// addCOSStructureFacts derives the structural COS facts: per-volume and
// per-pool leaf fractions, per-table leaf maxima, and the interior share.
func addCOSStructureFacts(fb *symptoms.FactBase, g *apg.APG, co *COResult) {
	p := g.Plan
	// Per-volume: what fraction of the volume's leaf operators are in
	// the COS? (The paper's "only one out of 7 leaf operators using V2".)
	var anyFrac float64
	poolFrac := map[topology.ID]float64{}
	for _, vol := range g.Volumes() {
		leaves := g.LeavesOnVolume(vol)
		if len(leaves) == 0 {
			continue
		}
		inCOS := 0
		for _, id := range leaves {
			if co.InCOS(id) {
				inCOS++
			}
		}
		frac := float64(inCOS) / float64(len(leaves))
		fb.Add("cos-leaf-frac:"+string(vol), frac)
		if frac > anyFrac {
			anyFrac = frac
		}
		pool := g.Cfg.PoolOf(vol)
		if frac > poolFrac[pool] {
			poolFrac[pool] = frac
		}
	}
	fb.Add("cos-leaf-frac-any", anyFrac)
	for _, pool := range sortedKeys(poolFrac) {
		fb.Add("cos-leaf-frac-pool:"+string(pool), poolFrac[pool])
	}

	// Per-table: the highest anomaly score among the table's leaves.
	for _, table := range p.Tables() {
		var max float64
		for _, leaf := range p.LeavesOnTable(table) {
			if s := co.ScoreOf(leaf.ID); s > max {
				max = s
			}
		}
		fb.Add("cos-table:"+table, max)
	}

	// Interior share of the COS (a CPU-pressure hint).
	if len(co.COS) > 0 {
		interior := 0
		for _, id := range co.COS {
			if n, ok := p.Node(id); ok && !n.IsLeaf() {
				interior++
			}
		}
		fb.Add("cos-interior-frac", float64(interior)/float64(len(co.COS)))
	}
}

// addDerivedDAFacts lifts component-level DA scores into the aggregate
// facts the symptoms database references.
func addDerivedDAFacts(fb *symptoms.FactBase, in *Input, da *DAResult) {
	// Per-volume: the strongest total-I/O anomaly among the *other*
	// volumes of its pool. External contention shows up here; a database
	// whose own I/O grew does not.
	volLoad := map[topology.ID]float64{}
	for _, s := range da.Scores {
		if s.Metric != metrics.StTotalIOs {
			continue
		}
		if comp, ok := in.Cfg.Get(topology.ID(s.Component)); ok && comp.Kind == topology.KindVolume {
			volLoad[topology.ID(s.Component)] = s.Score
		}
	}
	for _, vol := range sortedKeys(volLoad) {
		var max float64
		for _, sib := range in.Cfg.SharingVolumes(vol) {
			if sc, ok := volLoad[sib]; ok && sc > max {
				max = sc
			}
		}
		fb.Add("other-volume-load-increase:"+string(vol), max)
	}

	for _, s := range da.Scores {
		comp, ok := in.Cfg.Get(topology.ID(s.Component))
		if !ok {
			// Database pseudo-component.
			switch {
			case s.Component == apg.DBComponent && s.Metric == metrics.DBLockWaitTime:
				fb.Add("lock-anomaly:db", s.Score)
			case s.Component == apg.DBComponent && s.Metric == metrics.DBLocksHeld:
				fb.Add("locks-held-high", s.Score)
			case s.Component == apg.DBComponent && s.Metric == metrics.DBBlocksRead:
				fb.Add("buffer-miss-anomaly", s.Score)
			}
			continue
		}
		switch comp.Kind {
		case topology.KindPool:
			if s.Metric == metrics.StTotalIOs {
				fb.Add("pool-load-increase:"+s.Component, s.Score)
			}
		case topology.KindDisk:
			pool := in.Cfg.PoolOf(topology.ID(s.Component))
			if pool != "" {
				fb.Add("disk-anomaly-in-pool:"+string(pool), s.Score)
			}
		case topology.KindServer:
			if s.Metric == metrics.SrvCPUUsagePct {
				fb.Add("cpu-anomaly:"+s.Component, s.Score)
			}
		}
	}
}

// addEventFacts records configuration and system events as timed facts,
// plus the derived pool-level facts (a volume created in pool P, a LUN
// mapping added for a volume of pool P).
func addEventFacts(fb *symptoms.FactBase, in *Input) {
	for _, ev := range in.Cfg.Log.All() {
		fb.AddTimed("event:"+string(ev.Kind)+":"+string(ev.Subject), 1, ev.T)
		switch ev.Kind {
		case topology.EvVolumeCreated:
			if pool := in.Cfg.PoolOf(ev.Subject); pool != "" {
				fb.AddTimed("new-volume-in-pool:"+string(pool), 1, ev.T)
			}
		case topology.EvLUNMapped, topology.EvZoneCreated:
			if pool := in.Cfg.PoolOf(ev.Subject); pool != "" {
				fb.AddTimed("new-mapping-in-pool:"+string(pool), 1, ev.T)
			}
		case topology.EvRAIDRebuildStart:
			fb.AddTimed("raid-rebuild:"+string(ev.Subject), 1, ev.T)
		case topology.EvDiskFailed:
			if pool := in.Cfg.PoolOf(ev.Subject); pool != "" {
				fb.AddTimed("disk-failed-in-pool:"+string(pool), 1, ev.T)
			}
		case topology.EvDMLBatch:
			fb.AddTimed("dml-event:"+string(ev.Subject), 1, ev.T)
		}
	}
}

// Bindings enumerates the subjects the symptoms database entries are
// instantiated against: every volume on the plan's dependency paths (and
// their disk-sharing neighbours), every pool those volumes belong to,
// every base table of the plan, and the database server.
func Bindings(in *Input, g *apg.APG) []symptoms.Binding {
	var out []symptoms.Binding
	seenVol := map[topology.ID]bool{}
	seenPool := map[topology.ID]bool{}
	addVolume := func(vol topology.ID) {
		if seenVol[vol] {
			return
		}
		seenVol[vol] = true
		pool := in.Cfg.PoolOf(vol)
		out = append(out, symptoms.Binding{
			Scope:   symptoms.ScopeVolume,
			Subject: string(vol),
			Vars:    map[string]string{"$V": string(vol), "$P": string(pool)},
		})
		if pool != "" && !seenPool[pool] {
			seenPool[pool] = true
			out = append(out, symptoms.Binding{
				Scope:   symptoms.ScopePool,
				Subject: string(pool),
				Vars:    map[string]string{"$P": string(pool)},
			})
		}
	}
	for _, vol := range g.Volumes() {
		addVolume(vol)
		for _, neighbour := range in.Cfg.SharingVolumes(vol) {
			addVolume(neighbour)
		}
	}
	for _, table := range g.Plan.Tables() {
		out = append(out, symptoms.Binding{
			Scope:   symptoms.ScopeTable,
			Subject: table,
			Vars:    map[string]string{"$T": table},
		})
	}
	out = append(out, symptoms.Binding{
		Scope:   symptoms.ScopeServer,
		Subject: string(in.Server),
		Vars:    map[string]string{"$S": string(in.Server)},
	})
	out = append(out, symptoms.Binding{
		Scope:   symptoms.ScopeGlobal,
		Subject: in.Query,
		Vars:    map[string]string{},
	})
	return out
}
