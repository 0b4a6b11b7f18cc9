// Package workload describes the activity applied to the testbed: the
// periodic report-generation queries whose slowdown DIADS diagnoses,
// and external application workloads hitting SAN volumes (steady or
// bursty).
package workload

import (
	"diads/internal/sanperf"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// QuerySchedule describes a query executed periodically, like the paper's
// report-generation query against RepDB.
type QuerySchedule struct {
	Query  string
	Start  simtime.Time
	Period simtime.Duration
	Count  int
}

// Times returns the scheduled start times.
func (qs QuerySchedule) Times() []simtime.Time {
	out := make([]simtime.Time, 0, qs.Count)
	for i := 0; i < qs.Count; i++ {
		out = append(out, qs.Start.Add(simtime.Duration(i)*qs.Period))
	}
	return out
}

// ExternalLoad is an application workload against a SAN volume. A
// DutyCycle below 1 makes the load bursty: within each Period it is on for
// DutyCycle of the time and silent otherwise — the bursts production
// monitoring averages out.
type ExternalLoad struct {
	Name      string
	Volume    topology.ID
	Window    simtime.Interval
	ReadIOPS  float64
	WriteIOPS float64
	SeqFrac   float64
	DutyCycle float64
	Period    simtime.Duration
}

// Segments expands the load into piecewise-constant SAN load segments.
func (el ExternalLoad) Segments() []sanperf.Load {
	duty := el.DutyCycle
	if duty <= 0 || duty >= 1 || el.Period <= 0 {
		return []sanperf.Load{{
			Volume: el.Volume, Iv: el.Window,
			ReadIOPS: el.ReadIOPS, WriteIOPS: el.WriteIOPS,
			SeqFrac: el.SeqFrac, Source: el.Name,
		}}
	}
	var out []sanperf.Load
	for start := el.Window.Start; start < el.Window.End; start = start.Add(el.Period) {
		end := start.Add(simtime.Duration(float64(el.Period) * duty))
		if end > el.Window.End {
			end = el.Window.End
		}
		if end <= start {
			break
		}
		out = append(out, sanperf.Load{
			Volume: el.Volume, Iv: simtime.NewInterval(start, end),
			ReadIOPS: el.ReadIOPS, WriteIOPS: el.WriteIOPS,
			SeqFrac: el.SeqFrac, Source: el.Name,
		})
	}
	return out
}

// MeanIOPS returns the load's time-averaged total IOPS over its window —
// what a coarse monitoring interval would report for a bursty load.
func (el ExternalLoad) MeanIOPS() float64 {
	total := el.ReadIOPS + el.WriteIOPS
	if el.DutyCycle > 0 && el.DutyCycle < 1 && el.Period > 0 {
		return total * el.DutyCycle
	}
	return total
}
