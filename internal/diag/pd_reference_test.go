package diag_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"diads/internal/dbsys"
	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/experiments"
	"diads/internal/faults"
	"diads/internal/opt"
	"diads/internal/plan"
	"diads/internal/simtime"
	"diads/internal/testbed"
	"diads/internal/topology"
	"diads/internal/workload"
)

// This file holds Module PD to the long way it ran before its replays
// were laid over one read of the live schema and parameters: runs
// partitioned and signatures counted per call, plans diffed through maps
// of strings, the change log filtered by EventLog.Between, and each
// event replayed on a copy of the catalog or the parameters through an
// optimizer of its own that builds both plans. The reference shares no
// code with PD but the optimizer's PlanQuery.

// tpchIndexes are the indexes dbsys.NewTPCHCatalog creates: the copy
// below finds a catalog's indexes by name.
var tpchIndexes = []string{
	dbsys.IdxPartKey, dbsys.IdxPartType, dbsys.IdxSupplierKey, dbsys.IdxPartsuppPart,
	dbsys.IdxPartsuppSupp, dbsys.IdxNationKey, dbsys.IdxRegionKey, dbsys.IdxOrdersKey,
	dbsys.IdxLineitemOrder, dbsys.IdxCustomerKey, dbsys.IdxOrdersCustomer,
}

// refCopyCatalog copies a TPC-H catalog through its public API: the
// reference's stand-in for the Catalog.Clone PD used to replay on.
func refCopyCatalog(t *testing.T, c *dbsys.Catalog) *dbsys.Catalog {
	out := dbsys.NewCatalog()
	for _, ts := range c.Tablespaces() {
		out.AddTablespace(ts.Name, ts.Volume, ts.Mode)
	}
	for _, name := range c.Tables() {
		tbl := c.MustTable(name)
		if err := out.AddTable(tbl.Name, tbl.Tablespace, tbl.Rows, tbl.RowWidthB); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range tpchIndexes {
		ix, ok := c.Index(name)
		if !ok {
			continue
		}
		if err := out.AddIndex(ix.Name, ix.Table, ix.Column, ix.Correlation); err != nil {
			t.Fatal(err)
		}
		if ix.Dropped {
			out.DropIndex(ix.Name)
		}
	}
	return out
}

// refCopyParams copies a parameter set through its public API.
func refCopyParams(p *dbsys.Params) *dbsys.Params {
	out := dbsys.DefaultParams()
	for _, name := range p.Names() {
		out.Set(name, p.Settings().Get(name))
	}
	return out
}

// refDominantSig counts signatures in a map; ties go to the first seen.
func refDominantSig(runs []*exec.RunRecord) string {
	counts := map[string]int{}
	var order []string
	for _, r := range runs {
		if counts[r.PlanSig] == 0 {
			order = append(order, r.PlanSig)
		}
		counts[r.PlanSig]++
	}
	best, bestN := "", 0
	for _, sig := range order {
		if counts[sig] > bestN {
			best, bestN = sig, counts[sig]
		}
	}
	return best
}

// refPlanWithSig returns the first run's plan with the signature.
func refPlanWithSig(runs []*exec.RunRecord, sig string) *plan.Plan {
	for _, r := range runs {
		if r.PlanSig == sig {
			return r.Plan
		}
	}
	if len(runs) > 0 {
		return runs[0].Plan
	}
	return nil
}

// refDiff is plan.Diff through maps of access-path strings and operator
// counts.
func refDiff(a, b *plan.Plan) []plan.Difference {
	if a.Signature() == b.Signature() {
		return nil
	}
	var out []plan.Difference
	accessOf := func(p *plan.Plan) map[string]string {
		m := map[string]string{}
		for _, n := range p.Leaves() {
			key := n.Table
			if n.Alias != "" {
				key += " " + n.Alias
			}
			desc := string(n.Type)
			if n.Index != "" {
				desc += " using " + n.Index
			}
			m[key] = desc
		}
		return m
	}
	accA, accB := accessOf(a), accessOf(b)
	var keys []string
	for k := range accA {
		keys = append(keys, k)
	}
	for k := range accB {
		if _, ok := accA[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		va, vb := accA[k], accB[k]
		switch {
		case va == vb:
		case va == "":
			out = append(out, plan.Difference{Kind: "access-path", Detail: fmt.Sprintf("%s: none -> %s", k, vb)})
		case vb == "":
			out = append(out, plan.Difference{Kind: "access-path", Detail: fmt.Sprintf("%s: %s -> none", k, va)})
		default:
			out = append(out, plan.Difference{Kind: "access-path", Detail: fmt.Sprintf("%s: %s -> %s", k, va, vb)})
		}
	}
	count := func(p *plan.Plan) map[plan.OpType]int {
		m := map[plan.OpType]int{}
		for _, n := range p.Nodes() {
			m[n.Type]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	for _, typ := range []plan.OpType{plan.OpLimit, plan.OpSort, plan.OpHashJoin, plan.OpMergeJoin, plan.OpNestedLoop,
		plan.OpHash, plan.OpMaterialize, plan.OpAggregate, plan.OpSeqScan, plan.OpIndexScan} {
		if ca[typ] != cb[typ] {
			out = append(out, plan.Difference{Kind: "operator", Detail: fmt.Sprintf("%s count %d -> %d", typ, ca[typ], cb[typ])})
		}
	}
	if len(out) == 0 {
		out = append(out, plan.Difference{Kind: "shape", Detail: "same operators arranged differently"})
	}
	return out
}

// refReplayIndex toggles the index on a catalog copy and plans before
// and after through a fresh optimizer, building both plans.
func refReplayIndex(t *testing.T, in *diag.Input, ev topology.Event, res *diag.PDResult) diag.PlanChangeCause {
	idx := string(ev.Subject)
	cause := diag.PlanChangeCause{Event: ev}
	cat := refCopyCatalog(t, in.Cat)
	o := opt.New(cat)
	after, errA := o.PlanQuery(in.Query, in.Stats, in.Params)
	var toggled bool
	if ev.Kind == topology.EvIndexDropped {
		toggled = cat.RestoreIndex(idx)
	} else {
		toggled = cat.DropIndex(idx)
	}
	if !toggled {
		cause.Detail = fmt.Sprintf("unknown index %q", idx)
		return cause
	}
	before, errB := o.PlanQuery(in.Query, in.Stats, in.Params)
	if errB != nil || errA != nil {
		cause.Detail = "optimizer replay failed"
		return cause
	}
	cause.Explains = before.Signature() == res.SatSig && after.Signature() == res.UnsatSig
	if cause.Explains {
		cause.Detail = fmt.Sprintf("replaying %s of %s reproduces the plan change", ev.Kind, idx)
	} else {
		cause.Detail = fmt.Sprintf("replaying %s of %s does not reproduce the change", ev.Kind, idx)
	}
	return cause
}

// refReplayParam plans under copies of the parameters with the old and
// the new value, building both plans.
func refReplayParam(in *diag.Input, ev topology.Event, res *diag.PDResult) diag.PlanChangeCause {
	cause := diag.PlanChangeCause{Event: ev}
	name, oldV, newV := string(ev.Subject), ev.Old, ev.Value
	pOld, pNew := refCopyParams(in.Params), refCopyParams(in.Params)
	pOld.Set(name, oldV)
	pNew.Set(name, newV)
	o := opt.New(in.Cat)
	before, errB := o.PlanQuery(in.Query, in.Stats, pOld)
	after, errA := o.PlanQuery(in.Query, in.Stats, pNew)
	if errB != nil || errA != nil {
		cause.Detail = "optimizer replay failed"
		return cause
	}
	cause.Explains = before.Signature() == res.SatSig && after.Signature() == res.UnsatSig
	if cause.Explains {
		cause.Detail = fmt.Sprintf("changing %s from %g to %g reproduces the plan change", name, oldV, newV)
	} else {
		cause.Detail = fmt.Sprintf("changing %s from %g to %g does not reproduce the change", name, oldV, newV)
	}
	return cause
}

// refPlanDiffing is Module PD the long way.
func refPlanDiffing(t *testing.T, in *diag.Input) *diag.PDResult {
	var sat, unsat []*exec.RunRecord
	for _, r := range in.Runs {
		if s, ok := in.Satisfactory[r.RunID]; ok && s {
			sat = append(sat, r)
		} else if ok {
			unsat = append(unsat, r)
		}
	}
	byStart := func(a, b *exec.RunRecord) int { return cmp.Compare(a.Start, b.Start) }
	slices.SortStableFunc(sat, byStart)
	slices.SortStableFunc(unsat, byStart)

	res := &diag.PDResult{SatSig: refDominantSig(sat), UnsatSig: refDominantSig(unsat)}
	res.SatPlan, res.UnsatPlan = refPlanWithSig(sat, res.SatSig), refPlanWithSig(unsat, res.UnsatSig)
	if res.SatSig == res.UnsatSig {
		res.CommonPlan = res.UnsatPlan
		return res
	}
	res.Changed = true
	res.Differences = refDiff(res.SatPlan, res.UnsatPlan)
	for _, ev := range in.Cfg.Log.Between(sat[len(sat)-1].Start, unsat[0].Start) {
		switch ev.Kind {
		case topology.EvIndexDropped, topology.EvIndexCreated:
			res.Causes = append(res.Causes, refReplayIndex(t, in, ev, res))
		case topology.EvParamChanged:
			res.Causes = append(res.Causes, refReplayParam(in, ev, res))
		case topology.EvStatsUpdated, topology.EvDMLBatch:
			res.Causes = append(res.Causes, diag.PlanChangeCause{
				Event:  ev,
				Detail: "statistics-related event; replay requires before/after snapshots",
			})
		}
	}
	return res
}

// checkPD runs PD and the reference on one input and requires equal
// results.
func checkPD(t *testing.T, name string, in *diag.Input) *diag.PDResult {
	t.Helper()
	got, err := diag.PlanDiffing(in)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := refPlanDiffing(t, in); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PD\n%+v\nlong way\n%+v", name, got, want)
	}
	return got
}

// TestPDMatchesLongWayReference holds PD to the reference on the nine
// scenarios at seeds 1, 7 and 42.
func TestPDMatchesLongWayReference(t *testing.T) {
	explained := 0
	for id := experiments.S1SANMisconfig; id <= experiments.SRAIDRebuild; id++ {
		for _, seed := range []int64{1, 7, 42} {
			sc, err := experiments.Build(id, seed)
			if err != nil {
				t.Fatal(err)
			}
			res := checkPD(t, fmt.Sprintf("scenario %d seed %d", id, seed), sc.Input)
			for _, c := range res.Causes {
				if c.Explains {
					explained++
				}
			}
		}
	}
	if explained != 3 {
		t.Fatalf("%d explained causes over the three seeds, want S6's drop at each", explained)
	}
}

// paramChangeInput simulates the Figure 1 testbed with index scans
// turned off halfway through 12 runs of Q2.
func paramChangeInput(t *testing.T) *diag.Input {
	tb, err := testbed.NewFigure1(45)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 12
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: runs},
	}
	horizon := simtime.Time(10*simtime.Minute) + simtime.Time(runs*30*simtime.Minute)
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, horizon)
	}
	onset := simtime.Time(10*simtime.Minute) + simtime.Time(runs/2*30*simtime.Minute) - simtime.Time(5*simtime.Minute)
	if err := faults.Inject(tb, &faults.ParamChange{At: onset, Param: dbsys.ParamEnableIndexScan, Value: 0}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	hist := tb.RunsFor("Q2")
	return &diag.Input{
		Query: "Q2", Runs: hist, Satisfactory: diag.LabelAdaptive(hist, 1.6),
		Cfg: tb.Cfg, Cat: tb.Cat, Params: tb.Params, Stats: tb.Stats,
	}
}

// TestPDMatchesReferenceOnSyntheticLogs replays hand-written change logs
// through PD and the reference, over S6's plan change (an index drop) at
// seed 7 and over a rig whose plan changes when index scans are turned
// off: an index dropped, an index created, an unknown index, a parameter
// change, two events in one gap, a statistics event, events outside the
// gap on both of its edges, and one on its last instant. Each log must
// also give the causes and explanations its events call for.
func TestPDMatchesReferenceOnSyntheticLogs(t *testing.T) {
	sc, err := experiments.Build(experiments.SPlanRegression, 7)
	if err != nil {
		t.Fatal(err)
	}
	bases := []struct {
		name string
		in   *diag.Input
	}{{"index drop", sc.Input}, {"index scans off", paramChangeInput(t)}}
	for b, base := range bases {
		sat, unsat := base.in.LabeledRuns()
		lastSat, firstUnsat := sat[len(sat)-1].Start, unsat[0].Start
		mid := lastSat + (firstUnsat-lastSat)/2
		index := func(kind topology.EventKind, idx string, at simtime.Time) topology.Event {
			return topology.Event{T: at, Kind: kind, Subject: topology.ID(idx)}
		}
		param := func(name string, oldV, newV float64, at simtime.Time) topology.Event {
			return topology.Event{T: at, Kind: topology.EvParamChanged, Subject: topology.ID(name), Old: oldV, Value: newV}
		}
		for _, tc := range []struct {
			name    string
			events  []topology.Event
			causes  int
			explain [2]int // by base
		}{
			{"index dropped", []topology.Event{index(topology.EvIndexDropped, dbsys.IdxPartsuppPart, mid)}, 1, [2]int{1, 0}},
			{"index created", []topology.Event{index(topology.EvIndexCreated, dbsys.IdxPartType, mid)}, 1, [2]int{0, 0}},
			{"unknown index", []topology.Event{index(topology.EvIndexDropped, "no_such_idx", mid)}, 1, [2]int{0, 0}},
			{"parameter change", []topology.Event{param(dbsys.ParamEnableIndexScan, 1, 0, mid)}, 1, [2]int{0, 1}},
			{"two events in one gap", []topology.Event{
				param(dbsys.ParamRandomPageCost, 4, 40, mid),
				index(topology.EvIndexDropped, dbsys.IdxPartsuppPart, mid+1),
			}, 2, [2]int{1, 0}},
			{"statistics event", []topology.Event{{T: mid, Kind: topology.EvStatsUpdated, Subject: dbsys.TPartsupp}}, 1, [2]int{0, 0}},
			{"outside the gap", []topology.Event{
				param(dbsys.ParamEnableIndexScan, 1, 0, lastSat-1),
				index(topology.EvIndexDropped, dbsys.IdxPartsuppPart, lastSat),
				index(topology.EvIndexDropped, dbsys.IdxPartsuppPart, firstUnsat+1),
			}, 0, [2]int{0, 0}},
			{"on the gap's last instant", []topology.Event{param(dbsys.ParamEnableIndexScan, 1, 0, firstUnsat)}, 1, [2]int{0, 1}},
		} {
			in := *base.in
			in.Cfg = topology.New()
			for _, ev := range tc.events {
				in.Cfg.Log.Record(ev)
			}
			name := tc.name + " over " + base.name
			res := checkPD(t, name, &in)
			explained := 0
			for _, c := range res.Causes {
				if c.Explains {
					explained++
				}
			}
			if len(res.Causes) != tc.causes || explained != tc.explain[b] {
				t.Errorf("%s: %d causes, %d explaining, want %d and %d: %+v", name, len(res.Causes), explained, tc.causes, tc.explain[b], res.Causes)
			}
		}
	}
}
