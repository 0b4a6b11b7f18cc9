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
	"diads/internal/symptoms"
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
// size: like fleet.Report.Render, it carries no cache counters (cache
// hit/miss totals depend on worker interleaving and on how many events a
// chunk boundary releases at once; read them from Service).
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

// OnlineTick is what the single-instance driver hands its per-chunk
// callback: the chunk boundary (a metric watermark), the detections just
// released and submitted, the metric alerts since the last tick, and the
// service (to settle the pool, to read the registry). The last tick is
// Final: the stream has ended and the pool has settled.
type OnlineTick struct {
	Now      simtime.Time
	Final    bool
	Released []monitor.SlowdownEvent
	Alerts   []monitor.MetricAlert
	Service  *service.Service
}

// RunOnline is the single-instance driver: it builds the spec's
// instance and streams it in chunks (the monitoring lag and release
// granularity; 0 plays the whole timeline as one batch chunk), at every
// boundary releasing and submitting the detections the emitted metrics
// cover, then calling onTick (nil for none). The result's Render output
// is byte-identical for every chunk size: the evidence-window contract
// (metrics.ReadWindow, the monitor's watermark gate, grid-aligned
// emission) guarantees a diagnosis never depends on when its event was
// released.
func RunOnline(spec OnlineSpec, chunk simtime.Duration, onTick func(OnlineTick) error) (*OnlineResult, error) {
	env, err := BuildOnline(spec)
	if err != nil {
		return nil, err
	}
	tb := env.Testbed
	inst := &fleet.Instance{Testbed: tb, Monitor: env.Monitor}

	watcher := monitor.NewWatcher(tb.Store, monitor.Config{MinRuns: 12, MinFactor: 1.3})
	watcher.Watch(string(testbed.VolV1), metrics.VolReadTime)
	watcher.Watch(string(testbed.VolV2), metrics.VolReadTime)

	svc := service.New(fleet.EnvOf(tb, symptoms.Builtin()), service.Config{Workers: spec.Workers})
	svc.Self = spec.SelfObserver
	svc.Start(context.Background())
	defer svc.Stop()

	res := &OnlineResult{Onset: env.Onset}
	tick := func(watermark, now simtime.Time, final bool) error {
		t := OnlineTick{Now: now, Final: final, Service: svc, Released: inst.Release(watermark)}
		for _, ev := range t.Released {
			if ev.Query != "Q2" {
				res.FalsePositives++
			}
		}
		if err := svc.SubmitAll(t.Released); err != nil {
			return err
		}
		if final {
			svc.Wait()
		}
		t.Alerts = watcher.Poll()
		for _, a := range t.Alerts {
			if a.Component == string(testbed.VolV1) {
				res.Alerts++
			}
		}
		// Behind the watcher, whose cursors must see a sample before
		// retention may drop it, and behind the pool's in-flight reads.
		inst.Retain(svc.Floor(inst.ID))
		if onTick == nil {
			return nil
		}
		return onTick(t)
	}
	err = tb.SimulateStream(chunk, func(now simtime.Time) error { return tick(now, now, false) })
	if err == nil {
		err = tick(monitor.EndOfStream, tb.Horizon.End, true)
	}
	if err != nil {
		return nil, err
	}

	if res.Events, res.FirstDetection = inst.Detections(); res.Events > 0 {
		res.Detected = true
		res.DetectionLag = res.FirstDetection.Sub(env.Onset)
	}
	res.Incidents = svc.Registry().Incidents()
	res.Monitor = env.Monitor.Stats()
	res.Service = svc.Stats()
	if len(res.Incidents) > 0 && env.Fault != nil {
		top := res.Incidents[0]
		res.Correct = Named(top.Kind, top.Subject, env.Fault.Answer(tb))
	}
	return res, nil
}
