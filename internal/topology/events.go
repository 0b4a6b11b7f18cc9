package topology

import (
	"fmt"
	"sort"
	"sync"

	"diads/internal/simtime"
)

// EventKind classifies entries in the configuration change log and the
// system event stream. Database-side configuration events (index drops,
// parameter changes) share the log because DIADS reasons about both layers
// together.
type EventKind string

// Configuration and system events.
const (
	EvVolumeCreated      EventKind = "VolumeCreated"
	EvVolumeDeleted      EventKind = "VolumeDeleted"
	EvZoneCreated        EventKind = "ZoneCreated"
	EvZoneDeleted        EventKind = "ZoneDeleted"
	EvLUNMapped          EventKind = "LUNMapped"
	EvLUNUnmapped        EventKind = "LUNUnmapped"
	EvDiskFailed         EventKind = "DiskFailed"
	EvRAIDRebuildStart   EventKind = "RAIDRebuildStarted"
	EvRAIDRebuildDone    EventKind = "RAIDRebuildCompleted"
	EvWorkloadStarted    EventKind = "WorkloadStarted"
	EvWorkloadStopped    EventKind = "WorkloadStopped"
	EvVolumePerfDegraded EventKind = "VolumePerfDegraded" // user-defined trigger
	EvHighSubsystemLoad  EventKind = "HighSubsystemLoad"  // user-defined trigger
	// Database-layer configuration events.
	EvIndexCreated EventKind = "IndexCreated"
	EvIndexDropped EventKind = "IndexDropped"
	EvParamChanged EventKind = "ParamChanged"
	EvStatsUpdated EventKind = "StatsUpdated"
	EvDMLBatch     EventKind = "DMLBatch"
)

// Event is one timestamped configuration change or system event. The
// payload fields say what changed, in a form any environment can apply
// again (testbed.Apply reads them); a kind without a payload is
// log-only.
type Event struct {
	T       simtime.Time
	Kind    EventKind
	Subject ID     // the component, index, parameter or table concerned
	Detail  string // human-readable specifics

	// SAN payload: VolumeCreated carves Subject from Pool as Name of
	// SizeGB; ZoneCreated zones Ports as Name; ZoneDeleted removes zone
	// Name; LUNMapped maps volume Subject to Server.
	Pool   ID
	Name   string
	SizeGB int
	Ports  []ID
	Server ID
	// Database payload: DMLBatch scales table Subject's rows by Factor;
	// ParamChanged sets parameter Subject from Old to Value.
	Factor     float64
	Old, Value float64
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%s %-20s %-12s %s", e.T.Clock(), e.Kind, e.Subject, e.Detail)
}

// EventLog is an append-only, time-ordered record of events. It is safe
// for concurrent use.
type EventLog struct {
	mu     sync.RWMutex
	events []Event
}

// Record appends an event. Events may be recorded out of order; queries
// sort lazily. Environments record through testbed.Apply, which makes
// the change first.
func (l *EventLog) Record(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// All returns every event in time order.
func (l *EventLog) All() []Event {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// OfKind returns events of the given kind, in time order.
func (l *EventLog) OfKind(kind EventKind) []Event {
	var out []Event
	for _, e := range l.All() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Between returns events strictly after t0 and at or before t1, the
// candidate causes Module PD considers when a plan changes between two
// runs.
func (l *EventLog) Between(t0, t1 simtime.Time) []Event {
	var out []Event
	for _, e := range l.All() {
		if e.T > t0 && e.T <= t1 {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of recorded events.
func (l *EventLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.events)
}
