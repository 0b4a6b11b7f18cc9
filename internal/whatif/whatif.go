// Package whatif implements the what-if analysis extension of Section 7:
// administrators can assess the impact of a planned database or SAN
// change on query performance before applying it, using the same models
// the diagnosis workflow runs on — the SAN utilization law for storage
// changes and the optimizer cost model for database changes.
package whatif

import (
	"fmt"
	"math"

	"diads/internal/dbsys"
	"diads/internal/exec"
	"diads/internal/opt"
	"diads/internal/sanperf"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// Prediction is the outcome of one what-if question.
type Prediction struct {
	Change string
	// SlowdownFactor is the predicted query running-time multiplier
	// (values < 1 predict a speedup).
	SlowdownFactor float64
	Detail         string
}

// String implements fmt.Stringer.
func (p Prediction) String() string {
	return fmt.Sprintf("%s -> predicted %.2fx (%s)", p.Change, p.SlowdownFactor, p.Detail)
}

// Analyzer answers what-if questions against the current environment and
// a representative baseline run of the query.
type Analyzer struct {
	Cfg      *topology.Config
	SAN      *sanperf.Model
	Cat      *dbsys.Catalog
	Opt      *opt.Optimizer
	Params   *dbsys.Params
	Stats    dbsys.Stats
	Baseline *exec.RunRecord
	// At is the representative time at which storage state is evaluated.
	At simtime.Time
}

// AddWorkload predicts the query impact of adding an I/O workload to a
// volume: the extra utilization on the volume's pool inflates the I/O
// time of every leaf operator reading volumes of that pool.
func (a *Analyzer) AddWorkload(vol topology.ID, readIOPS, writeIOPS float64) (Prediction, error) {
	pool := a.Cfg.PoolOf(vol)
	if pool == "" {
		return Prediction{}, fmt.Errorf("whatif: volume %q has no pool", vol)
	}
	disks := a.Cfg.ChildrenOfKind(pool, topology.KindDisk)
	params := a.SAN.Params()
	extraUtil := (readIOPS*float64(params.RandomReadService) +
		writeIOPS*float64(params.WriteService)) / float64(len(disks))

	rho0 := a.SAN.PoolUtilization(pool, a.At)
	rho1 := math.Min(rho0+extraUtil, params.MaxUtil)
	factor := (1 - rho0) / (1 - rho1)

	pred := Prediction{
		Change: fmt.Sprintf("add %.0f read + %.0f write IOPS to %s", readIOPS, writeIOPS, vol),
		Detail: fmt.Sprintf("pool %s utilization %.2f -> %.2f; I/O on its volumes slows %.2fx",
			pool, rho0, rho1, factor),
	}
	pred.SlowdownFactor = a.scaleLeafIO(func(leafVol topology.ID) float64 {
		if a.Cfg.PoolOf(leafVol) == pool {
			return factor
		}
		return 1
	})
	return pred, nil
}

// MoveVolume predicts the impact of migrating a volume to another pool:
// its current pool gets lighter, the destination heavier.
func (a *Analyzer) MoveVolume(vol topology.ID, toPool topology.ID) (Prediction, error) {
	fromPool := a.Cfg.PoolOf(vol)
	if fromPool == "" {
		return Prediction{}, fmt.Errorf("whatif: volume %q has no pool", vol)
	}
	if _, ok := a.Cfg.Get(toPool); !ok {
		return Prediction{}, fmt.Errorf("whatif: unknown pool %q", toPool)
	}
	params := a.SAN.Params()
	load := a.SAN.VolumeReadIOPS(vol, a.At)*float64(params.RandomReadService) +
		a.SAN.VolumeWriteIOPS(vol, a.At)*float64(params.WriteService)

	fromDisks := float64(len(a.Cfg.ChildrenOfKind(fromPool, topology.KindDisk)))
	toDisks := float64(len(a.Cfg.ChildrenOfKind(toPool, topology.KindDisk)))
	rhoFrom0 := a.SAN.PoolUtilization(fromPool, a.At)
	rhoFrom1 := math.Max(rhoFrom0-load/fromDisks, 0)
	rhoTo0 := a.SAN.PoolUtilization(toPool, a.At)
	rhoTo1 := math.Min(rhoTo0+load/toDisks, params.MaxUtil)

	factorFrom := (1 - rhoFrom0) / (1 - rhoFrom1)
	factorTo := (1 - rhoTo0) / (1 - rhoTo1)

	pred := Prediction{
		Change: fmt.Sprintf("move %s from %s to %s", vol, fromPool, toPool),
		Detail: fmt.Sprintf("%s utilization %.2f -> %.2f; %s %.2f -> %.2f",
			fromPool, rhoFrom0, rhoFrom1, toPool, rhoTo0, rhoTo1),
	}
	pred.SlowdownFactor = a.scaleLeafIO(func(leafVol topology.ID) float64 {
		switch a.Cfg.PoolOf(leafVol) {
		case fromPool:
			return factorFrom
		case toPool:
			return factorTo
		}
		return 1
	})
	return pred, nil
}

// GrowTable predicts the impact of a table growing by the given factor,
// using the optimizer's cost model (the cost-model implementation of
// Module IA repurposed proactively).
func (a *Analyzer) GrowTable(table string, factor float64) (Prediction, error) {
	if _, ok := a.Cat.Table(table); !ok {
		return Prediction{}, fmt.Errorf("whatif: unknown table %q", table)
	}
	p, err := a.Opt.PlanQuery(a.Baseline.Query, a.Stats, a.Params)
	if err != nil {
		return Prediction{}, err
	}
	base := a.Opt.CostPlan(p, a.Stats, a.Params)
	grown := a.Stats.Clone()
	grown.Rows[table] = int64(float64(grown.Rows[table]) * factor)
	after := a.Opt.CostPlan(p, grown, a.Params)
	return Prediction{
		Change:         fmt.Sprintf("grow %s by %.2fx", table, factor),
		SlowdownFactor: after / base,
		Detail:         fmt.Sprintf("optimizer cost %.0f -> %.0f with the current plan", base, after),
	}, nil
}

// ChangeParam predicts the impact of a configuration-parameter change:
// if the optimizer would pick a different plan, the cost ratio of the new
// plan to the current one is reported.
func (a *Analyzer) ChangeParam(name string, value float64) (Prediction, error) {
	before, err := a.Opt.PlanQuery(a.Baseline.Query, a.Stats, a.Params)
	if err != nil {
		return Prediction{}, err
	}
	changed := a.Params.Clone()
	changed.Set(name, value)
	// Hypothetical state plans through an optimizer of its own, so the
	// question leaves the live optimizer's memo alone.
	after, err := opt.New(a.Cat).PlanQuery(a.Baseline.Query, a.Stats, changed)
	if err != nil {
		return Prediction{}, err
	}
	pred := Prediction{
		Change: fmt.Sprintf("set %s=%g", name, value),
	}
	if before.Signature() == after.Signature() {
		pred.SlowdownFactor = 1
		pred.Detail = "plan unchanged"
		return pred, nil
	}
	// Compare both plans under the *current* cost model: the plan the
	// changed parameters force, costed at true parameters.
	costBefore := a.Opt.CostPlan(before, a.Stats, a.Params)
	costAfter := a.Opt.CostPlan(after, a.Stats, a.Params)
	pred.SlowdownFactor = costAfter / costBefore
	pred.Detail = fmt.Sprintf("plan changes; cost %.0f -> %.0f", costBefore, costAfter)
	return pred, nil
}

// scaleLeafIO recomputes the baseline run's duration with each leaf's I/O
// time scaled by factorFor(volume of the leaf), returning the predicted
// duration ratio.
func (a *Analyzer) scaleLeafIO(factorFor func(topology.ID) float64) float64 {
	base := float64(a.Baseline.Duration())
	if base <= 0 {
		return 1
	}
	var extra float64
	for _, n := range a.Baseline.Plan.Leaves() {
		op := a.Baseline.Op(n.ID)
		if op == nil {
			continue
		}
		vol, err := a.Cat.VolumeOf(n.Table)
		if err != nil {
			continue
		}
		extra += float64(op.IOTime) * (factorFor(vol) - 1)
	}
	return (base + extra) / base
}
