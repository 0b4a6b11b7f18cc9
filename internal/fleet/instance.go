package fleet

import (
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
)

// Instance is one database+SAN deployment and the single owner of its
// evidence: a testbed (simulated, or filled by HTTP ingest) and the
// monitor attached to its run stream. Both drivers — the fleet's loop
// and the API's ingest requests, each holding the instance's lock —
// advance this one runtime, never from two goroutines at once.
type Instance struct {
	// ID scopes the instance's jobs and incidents in a shared service:
	// unique in a fleet, and empty for a lone instance (the online driver).
	ID      string
	Testbed *testbed.Testbed
	Monitor *monitor.Monitor
	// Shared marks the instance as attached to the fleet's shared SAN
	// pool: its incidents on shared components (Config.SharedSubjects)
	// group with other attached instances' into one fleet incident.
	Shared bool

	events         int          // detections released so far
	firstDetection simtime.Time // earliest offending run among them
	retained       simtime.Time // last horizon Retain applied
	resident       bool
}

// EnvOf is the one view of a testbed as a diagnosis environment.
func EnvOf(tb *testbed.Testbed, symdb *symptoms.DB) service.Env {
	return service.Env{
		Store: tb.Store, Cfg: tb.Cfg, Cat: tb.Cat, Opt: tb.Opt,
		Params: tb.Params, Stats: tb.Stats, Server: testbed.ServerDB,
		SymDB: symdb,
	}
}

// Release returns, in arrival order, the detections whose evidence read
// windows the watermark covers (every sample at or before it is in the
// store), tagged with the instance ID so dedup keys, incidents and
// learning stay per-instance in a shared service, and counts them. A
// stream that has ended releases its tail at monitor.EndOfStream.
func (in *Instance) Release(watermark simtime.Time) []monitor.SlowdownEvent {
	released := in.Monitor.Release(watermark)
	for i := range released {
		ev := &released[i]
		ev.Instance = in.ID
		if in.events == 0 || ev.At < in.firstDetection {
			in.firstDetection = ev.At
		}
		in.events++
	}
	return released
}

// Retain truncates the instance's metric store, SAN timelines and run
// history to its evidence low watermark, the oldest time any diagnosis
// can still read: the monitor's own (history ring and held detections)
// and, when hasFloor, the earliest ReadWindow.Start among detections
// already out of Release and not yet diagnosed — buffered by the caller,
// or queued or running in the pool (service.Service.Floor, read after
// SubmitAll returned).
//
// Diagnoses of the instance may be in flight: every read a diagnosis
// makes lies inside its event's ReadWindow, the floor covers every
// window submitted so far, only the driver submits the instance's
// events, and a job finishing meanwhile can only raise the floor. An
// instance with no monitor history is skipped: a run in progress will
// enter the ring with a Start in the past, so no horizon is safe yet.
// The low watermark moves once per run the ring evicts, not once per
// call; a horizon that has not advanced returns here.
func (in *Instance) Retain(floor simtime.Time, hasFloor bool) {
	lw, ok := in.Monitor.LowWatermark()
	if !ok {
		return
	}
	if hasFloor && floor < lw {
		lw = floor
	}
	if lw <= in.retained {
		return
	}
	in.retained = lw
	in.Testbed.Retain(lw)
}

// Attach registers the instance's environment with the service (a cheap
// pure view over the testbed) and reports whether it was paged out.
func (in *Instance) Attach(svc *service.Service, symdb *symptoms.DB) bool {
	if in.resident {
		return false
	}
	svc.AddInstance(in.ID, EnvOf(in.Testbed, symdb))
	in.resident = true
	return true
}

// Detach pages the instance's environment out of the service and
// reports whether it was resident. No job of the instance may be queued
// or running.
func (in *Instance) Detach(svc *service.Service) bool {
	if !in.resident {
		return false
	}
	svc.RemoveInstance(in.ID)
	in.resident = false
	return true
}
