package experiments

import (
	"context"
	"fmt"
	"strings"

	"diads/internal/fleet"
	"diads/internal/metrics"
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/testbed"
)

// OnlineResult is the outcome of the online-pipeline scenario: a
// multi-query workload streamed through the monitor and the concurrent
// diagnosis service while a SAN misconfiguration degrades one query.
type OnlineResult struct {
	// Onset is when the fault was injected; FirstDetection when the
	// monitor emitted its first event (zero if never).
	Onset          simtime.Time
	FirstDetection simtime.Time
	Detected       bool
	// DetectionLag is FirstDetection - Onset.
	DetectionLag simtime.Duration
	// Events counts monitor events; Alerts the metric-watcher alerts on
	// the victim volume.
	Events int
	Alerts int
	// FalsePositives counts events for queries the fault does not touch.
	FalsePositives int
	// Incidents is the final ranked registry.
	Incidents []service.Incident
	// Correct reports whether the top incident names a cause in the
	// injected fault's answer.
	Correct bool
	// Monitor and Service are the pipeline's lifetime counters.
	Monitor monitor.Stats
	Service service.Stats
}

// Render formats the study like the paper's tables. The output is
// byte-deterministic per seed and independent of the streaming chunk
// size: like fleet.Report.Render, it carries no wall-clock times.
func (r *OnlineResult) Render() string {
	var b strings.Builder
	b.WriteString("Online monitoring & concurrent diagnosis\n")
	b.WriteString(strings.Repeat("-", 60) + "\n")
	fmt.Fprintf(&b, "fault onset          %s\n", r.Onset.Clock())
	if r.Detected {
		fmt.Fprintf(&b, "first detection      %s (lag %s)\n", r.FirstDetection.Clock(), r.DetectionLag)
	} else {
		b.WriteString("first detection      never\n")
	}
	fmt.Fprintf(&b, "slowdown events      %d (false positives: %d)\n", r.Events, r.FalsePositives)
	fmt.Fprintf(&b, "metric alerts (V1)   %d\n", r.Alerts)
	fmt.Fprintf(&b, "diagnoses            %d completed, %d failed\n", r.Service.Completed, r.Service.Failed)
	fmt.Fprintf(&b, "top incident correct %v\n", r.Correct)
	if len(r.Incidents) > 0 {
		top := r.Incidents[0]
		fmt.Fprintf(&b, "top incident         %s %s(%s) — %d events, impact %.1fs\n",
			top.Query, top.Kind, top.Subject, top.Events, top.EstImpact())
	}
	return b.String()
}

// Online runs the end-to-end online scenario through RunOnline in
// 30-minute chunks: Q2 (on the V1 volume), Q6, and Q14 (both on V2)
// execute on staggered periods; mid-timeline a SAN misconfiguration
// carves V' from pool P1 and loads it from another host, degrading only
// Q2, and the final registry must rank it on V1 as the top incident.
func Online(seed int64) (*OnlineResult, error) {
	return RunOnline(OnlineSpec{Seed: seed}, 30*simtime.Minute, nil)
}

// RunOnline is the single-instance driver: a one-instance fleet over the
// spec's instance, learning off and retention on, streamed in chunks
// (the monitoring lag and release granularity; 0 plays the whole
// timeline as one chunk). At every barrier it polls the V1/V2 metric
// watcher, then calls onBarrier (nil for none) with the barrier and the
// alerts just raised. The result's Render output is byte-identical for
// every chunk size: the evidence-window contract (metrics.ReadWindow, the
// monitor's watermark gate, grid-aligned emission) guarantees a diagnosis
// never depends on when its event was released.
func RunOnline(spec OnlineSpec, chunk simtime.Duration, onBarrier func(fleet.Barrier, []monitor.MetricAlert) error) (*OnlineResult, error) {
	env, err := BuildOnline(spec)
	if err != nil {
		return nil, err
	}
	tb := env.Testbed
	watcher := monitor.NewWatcher(tb.Store, monitor.Config{MinRuns: 12, MinFactor: 1.3})
	watcher.Watch(string(testbed.VolV1), metrics.VolReadTime)
	watcher.Watch(string(testbed.VolV2), metrics.VolReadTime)

	if chunk <= 0 {
		chunk = simtime.Duration(monitor.EndOfStream) // no timeline outlasts it
	}
	res := &OnlineResult{Onset: env.Onset}
	fl, err := fleet.New(fleet.Config{
		Chunk:        chunk,
		Service:      service.Config{Workers: spec.Workers},
		Learn:        fleet.LearnConfig{Disabled: true},
		SelfObserver: spec.SelfObserver,
		Retention:    true,
		OnBarrier: func(b fleet.Barrier) error {
			for _, ev := range b.Released {
				if ev.Query != "Q2" {
					res.FalsePositives++
				}
			}
			// Before retention, which must not drop a sample the
			// watcher's cursors have not seen.
			alerts := watcher.Poll()
			for _, a := range alerts {
				if a.Component == string(testbed.VolV1) {
					res.Alerts++
				}
			}
			if b.Final {
				res.Incidents = b.Service.Registry().Incidents()
				res.Service = b.Service.Stats()
			}
			if onBarrier == nil {
				return nil
			}
			return onBarrier(b, alerts)
		},
	}, []fleet.Instance{{Testbed: tb, Monitor: env.Monitor}})
	if err != nil {
		return nil, err
	}
	rep, err := fl.Run(context.Background())
	if err != nil {
		return nil, err
	}

	if ir := rep.Instances[0]; ir.Detected {
		res.Events, res.FirstDetection, res.Detected = ir.Events, ir.FirstDetection, true
		res.DetectionLag = res.FirstDetection.Sub(env.Onset)
	}
	res.Monitor = env.Monitor.Stats()
	if len(res.Incidents) > 0 && env.Fault != nil {
		top := res.Incidents[0]
		res.Correct = Named(top.Kind, top.Subject, env.Fault.Answer(tb))
	}
	return res, nil
}
