package fleet

import (
	"cmp"
	"context"
	"hash/fnv"
	"strconv"
	"sync/atomic"

	"diads/internal/diag"
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
)

// shardOf assigns an instance to a shard by FNV-1a hash of its ID. The
// assignment is load-bearing only for wall time: diagnosis state is
// instance-scoped throughout (dedup keys, registry identities),
// so moving an instance between shards cannot change any result — the
// property the shard-count determinism sweep pins.
func shardOf(id string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(shards))
}

// shard is one slice of the fleet: a subset of instances and their own
// diagnosis service (worker pool, dedup set, impact registry). Shards
// diagnose an epoch in parallel and share nothing on
// that hot path; they meet only at the learning exchange and the
// end-of-run report merge.
type shard struct {
	id        int
	f         *Fleet
	instances []*instanceState // fleet construction order
	svc       *service.Service

	// probed marks (instance, query) pairs whose quiet-window baseline
	// has been captured. Instance-scoped keys, so per-shard maps
	// partition the fleet-global set exactly.
	probed map[string]bool
	// resident counts the shard's non-hibernated instances. The loop
	// owns the resident flags; the counter is atomic only so the
	// fleet-level telemetry gauge can read it at scrape time.
	resident atomic.Int64

	waves    *telemetry.Counter
	released *telemetry.Counter
	waveSec  *telemetry.Histogram
}

// initTelemetry installs the shard's wave instruments. Sharded fleets
// label per shard so the series coexist; a single-shard fleet keeps the
// exact unlabeled families earlier PRs exposed.
func (sh *shard) initTelemetry(sharded bool) {
	var labels telemetry.Labels
	if sharded {
		labels = telemetry.Labels{"shard": strconv.Itoa(sh.id)}
	}
	reg := telemetry.Default()
	sh.waves = reg.Counter("diads_fleet_waves_total",
		"Evidence-time waves the fleet dispatched.", labels)
	sh.released = reg.Counter("diads_fleet_events_released_total",
		"Slowdown events released through the gates into waves.", labels)
	sh.waveSec = reg.Histogram("diads_fleet_wave_seconds",
		"Wall time of one evidence-time wave: submit, settle, probes, deposits.",
		labels, nil)
}

// retain runs the retention pass at a barrier: every instance's
// evidence is truncated to its low watermark (Instance.Retain) and, past
// the resident cap, idle instances hibernate out of the shard's service.
// Every diagnosis reads only inside its event's ReadWindow and run
// snapshots travel in the events, so neither can change a result: the
// retention-parity sweep pins reports byte-identical with retention on
// and off.
func (sh *shard) retain() {
	for _, st := range sh.instances {
		st.Retain(sh.svc)
	}
	// Hibernate in fleet construction order: a deterministic order over
	// deterministic eligibility, so the schedule is a function of the
	// event stream alone. Eligible instances hold no gated events —
	// nothing of theirs can be submitted before a future barrier, whose
	// wave rehydrates them first.
	cap := sh.f.cfg.ResidentCap
	if cap <= 0 {
		return
	}
	for _, st := range sh.instances {
		if int(sh.resident.Load()) <= cap {
			return
		}
		if st.Monitor.Pending() > 0 {
			continue
		}
		if st.Detach(sh.svc) {
			sh.resident.Add(-1)
		}
	}
}

// byEvidence orders detections by the end of their read windows, then
// by instance and run: the order waves are cut in.
func byEvidence(a, b monitor.SlowdownEvent) int {
	return cmp.Or(
		cmp.Compare(a.ReadWindow.End, b.ReadWindow.End),
		cmp.Compare(a.Instance, b.Instance),
		cmp.Compare(a.RunID, b.RunID),
	)
}

// submitWaves diagnoses released events, sorted byEvidence, in
// evidence-time waves: events sharing a read-window end diagnose
// concurrently (each diagnosis deposits what it confirmed, see
// onDiagnosis), then the shard settles its worker pool and captures
// quiet-window probes before the next wave. Ordering by evidence time —
// never by barrier arrival — is what makes the run chunk-size invariant:
// the wave sequence is a function of the event stream alone, so a
// 1-minute-chunk run and a single-chunk batch run produce byte-identical
// reports.
func (sh *shard) submitWaves(ctx context.Context, released []monitor.SlowdownEvent) error {
	// Rehydrate hibernated instances before anything is submitted.
	for _, ev := range released {
		if st := sh.f.byID[ev.Instance]; st != nil && st.Attach(sh.svc, sh.f.cfg.SymDB) {
			sh.resident.Add(1)
		}
	}
	for i := 0; i < len(released); {
		j := i
		for j < len(released) && released[j].ReadWindow.End == released[i].ReadWindow.End {
			j++
		}
		span := telemetry.DefaultTracer().Start("fleet", "fleet.wave")
		if err := sh.svc.SubmitAll(released[i:j]); err != nil {
			return err
		}
		sh.svc.Wait()
		sh.quietProbes(ctx, released[i:j])
		wall := span.End(
			telemetry.Attr{Key: "shard", Value: strconv.Itoa(sh.id)},
			telemetry.Attr{Key: "events", Value: strconv.Itoa(j - i)},
			telemetry.Attr{Key: "window_end", Value: released[i].ReadWindow.End.Clock()},
		)
		sh.waves.Inc()
		sh.released.Add(int64(j - i))
		sh.waveSec.Observe(wall.Seconds())
		i = j
	}
	return nil
}

// quietProbes captures the quiet-window baseline of every (instance,
// query) seen in the wave, once per pair: the event's satisfactory run
// history is diagnosed as if its last healthy run had been flagged, and
// whatever facts emerge are by construction present during normal
// operation — exactly what the miner's background filter and the
// validator's healthy corpus need. Probes are derived from the event
// snapshot (not live monitor state), so their content is a function of
// the event stream alone; they are deposited under the wave's epoch and
// fold into the learner with it.
func (sh *shard) quietProbes(ctx context.Context, wave []monitor.SlowdownEvent) {
	if sh.f.cfg.Learn.Disabled {
		return
	}
	for _, ev := range wave {
		key := ev.Instance + "\x00" + ev.Query
		if sh.probed[key] {
			continue
		}
		sh.probed[key] = true
		st := sh.f.byID[ev.Instance]
		if st == nil {
			continue
		}
		if fb := quietFacts(ctx, EnvOf(st.Testbed, nil), ev); fb != nil {
			sh.f.ex.depositHealthy(epochOf(ev.ReadWindow.End), fb)
		}
	}
}

// onDiagnosis observes every completed diagnosis (called from the
// shard's service workers; a fleet that does not learn sets no hook).
// The incident the diagnosis filed, if now confirmed, goes to the
// exchange tagged with the end of the event's read window, which is
// its wave's: only a diagnosis changes an incident, so this feeds the
// learner every confirmation the whole registry holds, in the wave it
// happened. A mined entry scoring high in a diagnosis on an instance
// that did not author it is a successful cross-instance symptom
// transfer. Author sets change only at epoch folds and the counters
// are commutative, so worker scheduling cannot change the final
// report.
func (sh *shard) onDiagnosis(ev monitor.SlowdownEvent, res *diag.Result) {
	for _, inc := range sh.svc.Registry().FiledBy(ev, res) {
		if isConfirmed(inc) {
			sh.f.ex.depositConfirm(confirmation{waveEnd: ev.ReadWindow.End, inc: inc})
		}
	}
	for _, c := range res.Causes {
		if !symptoms.IsMined(c.Kind) || c.Confidence < confirmConfidence {
			continue
		}
		if sh.f.ex.learn.transferIn(c.Kind, ev.Instance) {
			if st := sh.f.byID[ev.Instance]; st != nil {
				st.transfers.Add(1)
			}
		}
	}
}

// onHealthy receives healthy-period fact bases from low-confidence
// diagnoses; they join the epoch of the event that produced them.
func (sh *shard) onHealthy(ev monitor.SlowdownEvent, fb *symptoms.FactBase) {
	sh.f.ex.depositHealthy(epochOf(ev.ReadWindow.End), fb)
}
