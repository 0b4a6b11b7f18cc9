package testbed

import (
	"fmt"

	"diads/internal/topology"
)

// Apply makes one change to the environment, as topology.Event's payload
// describes it, and records it in the change log. Every database and SAN
// state change goes through it, whichever door it comes through: the
// scheduled Changes, a fault, a remedy, or the ingest API. ParamChanged
// fills Old (and an empty Detail) from the value it replaces;
// StatsUpdated re-snapshots the optimizer statistics. Other kinds, and
// SAN kinds without their payload, are log-only. A mutation that fails
// returns its error and is not logged.
func (tb *Testbed) Apply(ev topology.Event) error {
	var err error
	switch ev.Kind {
	case topology.EvVolumeCreated:
		if ev.Pool != "" {
			err = tb.Cfg.AddVolume(ev.Subject, ev.Pool, ev.Name, ev.SizeGB)
		}
	case topology.EvZoneCreated:
		if len(ev.Ports) > 0 {
			err = tb.Cfg.AddZone(ev.Name, ev.Ports...)
		}
	case topology.EvZoneDeleted:
		if ev.Name != "" && !tb.Cfg.RemoveZone(ev.Name) {
			err = fmt.Errorf("no zone %q", ev.Name)
		}
	case topology.EvLUNMapped:
		if ev.Server != "" {
			err = tb.Cfg.MapLUN(ev.Subject, ev.Server)
		}
	case topology.EvIndexDropped:
		if !tb.Cat.DropIndex(string(ev.Subject)) {
			err = fmt.Errorf("unknown index")
		}
	case topology.EvIndexCreated:
		if !tb.Cat.RestoreIndex(string(ev.Subject)) {
			err = fmt.Errorf("unknown index")
		}
	case topology.EvParamChanged:
		ev.Old = tb.Params.Set(string(ev.Subject), ev.Value)
		if ev.Detail == "" {
			ev.Detail = fmt.Sprintf("%s: %g -> %g", ev.Subject, ev.Old, ev.Value)
		}
	case topology.EvDMLBatch:
		err = tb.Cat.ScaleRows(string(ev.Subject), ev.Factor)
	case topology.EvStatsUpdated:
		tb.Stats = tb.Cat.Snapshot()
		tb.Engine.StatsBase = tb.Stats
	}
	if err != nil {
		return fmt.Errorf("testbed: applying %s of %s: %w", ev.Kind, ev.Subject, err)
	}
	tb.Cfg.Log.Record(ev)
	return nil
}
