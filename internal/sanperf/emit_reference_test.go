package sanperf

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// ref is the long way round: the SAN model's monitoring emission as the
// seed wrote it, before any memo or piecewise evaluation. Every probe of
// every series re-walks the timelines through Timeline.At and MeanOver,
// and pool utilization sums DiskUtilization disk by disk. Emit must
// reproduce it bit for bit.
type ref struct{ m *Model }

func (r ref) diskActive(disk topology.ID, t simtime.Time) bool {
	return r.m.outage.At(diskKey(disk), t) == 0
}

func (r ref) activeDisks(pool topology.ID, t simtime.Time) []topology.ID {
	disks := r.m.cfg.ChildrenOfKind(pool, topology.KindDisk)
	var active []topology.ID
	for _, d := range disks {
		if r.diskActive(d, t) {
			active = append(active, d)
		}
	}
	if len(active) == 0 {
		return disks
	}
	return active
}

func (r ref) seqFrac(vol topology.ID, t simtime.Time) float64 {
	rd := r.m.reads.At(volKey(vol), t)
	if rd <= 0 {
		return 0
	}
	return math.Min(1, math.Max(0, r.m.seqReads.At(volKey(vol), t)/rd))
}

func (r ref) diskUtilization(disk topology.ID, t simtime.Time) float64 {
	m := r.m
	pool := m.cfg.Parent(disk)
	if pool == "" {
		return 0
	}
	if !r.diskActive(disk, t) {
		return 1
	}
	n := float64(len(r.activeDisks(pool, t)))
	if n == 0 {
		return 1
	}
	var demand float64
	for _, vol := range m.cfg.VolumesInPool(pool) {
		rd := m.reads.At(volKey(vol), t)
		w := m.writes.At(volKey(vol), t)
		seq := r.seqFrac(vol, t)
		readSvc := float64(m.params.RandomReadService)*(1-seq) +
			float64(m.params.SequentialReadService)*seq
		demand += (rd*readSvc + w*float64(m.params.WriteService)) / n
	}
	demand += m.diskUtil.At(diskKey(disk), t)
	return demand
}

func (r ref) poolUtilization(pool topology.ID, t simtime.Time) float64 {
	disks := r.activeDisks(pool, t)
	if len(disks) == 0 {
		return 0
	}
	var sum float64
	for _, d := range disks {
		sum += r.diskUtilization(d, t)
	}
	return sum / float64(len(disks))
}

func (r ref) response(vol topology.ID, t simtime.Time, svc simtime.Duration) simtime.Duration {
	pool := r.m.cfg.PoolOf(vol)
	if pool == "" {
		return svc
	}
	return simtime.Duration(float64(svc) * r.m.queueFactor(r.poolUtilization(pool, t)))
}

func (r ref) poolWrite(vol topology.ID, w simtime.Interval) float64 {
	m := r.m
	pool := m.cfg.PoolOf(vol)
	if pool == "" {
		return m.writes.MeanOver(volKey(vol), w)
	}
	var sum float64
	for _, v := range m.cfg.VolumesInPool(pool) {
		sum += m.writes.MeanOver(volKey(v), w)
	}
	return sum
}

// emit is the seed's EmitMetrics followed by its EmitNetworkMetrics.
func (r ref) emit(store *metrics.Store, sp *metrics.Sampler, iv simtime.Interval, server topology.ID) {
	m, cfg := r.m, r.m.cfg
	mean := func(comp string, metric metrics.Metric, fn func(w simtime.Interval) float64) {
		sp.RecordWindowMean(store, comp, metric, iv, func(_ int, w simtime.Interval) float64 { return fn(w) })
	}
	for _, vol := range cfg.All(topology.KindVolume) {
		comp := string(vol)
		mean(comp, metrics.VolReadIO, func(w simtime.Interval) float64 { return m.reads.MeanOver(volKey(vol), w) })
		mean(comp, metrics.VolWriteIO, func(w simtime.Interval) float64 { return r.poolWrite(vol, w) })
		mean(comp, metrics.StContaminatingWr, func(w simtime.Interval) float64 {
			return r.poolWrite(vol, w) - m.writes.MeanOver(volKey(vol), w)
		})
		sp.Record(store, comp, metrics.VolReadTime, iv, func(t simtime.Time) float64 {
			return float64(r.response(vol, t, m.params.RandomReadService)) * 1000
		})
		sp.Record(store, comp, metrics.VolWriteTime, iv, func(t simtime.Time) float64 {
			return float64(r.response(vol, t, m.params.WriteService)) * 1000
		})
		mean(comp, metrics.StBytesRead, func(w simtime.Interval) float64 {
			seq := m.seqReads.MeanOver(volKey(vol), w)
			rnd := m.reads.MeanOver(volKey(vol), w) - seq
			return seq*sequentialIOKB + rnd*randomIOKB
		})
		mean(comp, metrics.StBytesWritten, func(w simtime.Interval) float64 { return m.writes.MeanOver(volKey(vol), w) * randomIOKB })
		mean(comp, metrics.StSeqReadRequests, func(w simtime.Interval) float64 { return m.seqReads.MeanOver(volKey(vol), w) })
		mean(comp, metrics.StTotalIOs, func(w simtime.Interval) float64 {
			return m.reads.MeanOver(volKey(vol), w) + m.writes.MeanOver(volKey(vol), w)
		})
	}
	for _, disk := range cfg.All(topology.KindDisk) {
		comp := string(disk)
		pool := cfg.Parent(disk)
		share := func(w simtime.Interval, read bool) float64 {
			mid := w.Start.Add(w.Length() / 2)
			n := float64(len(r.activeDisks(pool, mid)))
			if n == 0 || !r.diskActive(disk, mid) {
				return 0
			}
			var sum float64
			for _, v := range cfg.VolumesInPool(pool) {
				if read {
					sum += m.reads.MeanOver(volKey(v), w)
				} else {
					sum += m.writes.MeanOver(volKey(v), w)
				}
			}
			return sum / n
		}
		mean(comp, metrics.StPhysReadOps, func(w simtime.Interval) float64 { return share(w, true) })
		mean(comp, metrics.StPhysWriteOps, func(w simtime.Interval) float64 { return share(w, false) })
		sp.Record(store, comp, metrics.StPhysReadTime, iv, func(t simtime.Time) float64 {
			return float64(m.params.RandomReadService) * m.queueFactor(r.diskUtilization(disk, t)) * 1000
		})
		sp.Record(store, comp, metrics.StPhysWriteTime, iv, func(t simtime.Time) float64 {
			return float64(m.params.WriteService) * m.queueFactor(r.diskUtilization(disk, t)) * 1000
		})
		mean(comp, metrics.StTotalIOs, func(w simtime.Interval) float64 { return share(w, true) + share(w, false) })
	}
	for _, pool := range cfg.All(topology.KindPool) {
		mean(string(pool), metrics.StTotalIOs, func(w simtime.Interval) float64 {
			var sum float64
			for _, v := range cfg.VolumesInPool(pool) {
				sum += m.reads.MeanOver(volKey(v), w) + m.writes.MeanOver(volKey(v), w)
			}
			return sum
		})
	}
	for _, ss := range cfg.All(topology.KindSubsystem) {
		mean(string(ss), metrics.StTotalIOs, func(w simtime.Interval) float64 {
			var sum float64
			for _, pool := range cfg.ChildrenOfKind(ss, topology.KindPool) {
				for _, v := range cfg.VolumesInPool(pool) {
					sum += m.reads.MeanOver(volKey(v), w) + m.writes.MeanOver(volKey(v), w)
				}
			}
			return sum
		})
	}

	perPort := make(map[topology.ID][]topology.ID)
	for _, vol := range cfg.All(topology.KindVolume) {
		if !cfg.LUNVisible(vol, server) {
			continue
		}
		route, err := cfg.FabricRoute(server, vol)
		if err != nil {
			continue
		}
		for _, id := range route {
			if comp, ok := cfg.Get(id); ok && comp.Kind == topology.KindPort {
				perPort[id] = append(perPort[id], vol)
			}
		}
	}
	ports := make([]topology.ID, 0, len(perPort))
	for port := range perPort {
		ports = append(ports, port)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	for _, port := range ports {
		vols, comp := perPort[port], string(port)
		traffic := func(w simtime.Interval) float64 {
			var kb float64
			for _, v := range vols {
				seq := m.seqReads.MeanOver(volKey(v), w)
				rnd := m.reads.MeanOver(volKey(v), w) - seq
				kb += seq*sequentialIOKB + rnd*randomIOKB
				kb += m.writes.MeanOver(volKey(v), w) * randomIOKB
			}
			return kb
		}
		mean(comp, metrics.NetBytesTransmitted, traffic)
		mean(comp, metrics.NetBytesReceived, traffic)
		mean(comp, metrics.NetPacketsTransmitted, func(w simtime.Interval) float64 { return traffic(w) / 2 })
		sp.Record(store, comp, metrics.NetErrorFrames, iv, func(simtime.Time) float64 { return 0 })
		sp.Record(store, comp, metrics.NetCRCErrors, iv, func(simtime.Time) float64 { return 0 })
	}
}

// refSAN builds a two-subsystem SAN: pools A (4 disks) and B (3) on
// ss-1, pool C (2) on ss-2, all zoned to srv-db through one switch.
// vol-a2 is not LUN-mapped, so its traffic reaches no port.
func refSAN(t *testing.T) *topology.Config {
	t.Helper()
	c := topology.New()
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	keep(c.AddServer("srv-db", "db", nil))
	keep(c.AddHBA("hba-1", "srv-db", "hba"))
	keep(c.AddPort("hba-1-p0", "hba-1", "hba port"))
	keep(c.AddSwitch("sw-1", "sw", "edge"))
	for i := 0; i < 3; i++ {
		keep(c.AddPort(topology.ID(fmt.Sprintf("sw-1-p%d", i)), "sw-1", "switch port"))
	}
	for _, ss := range []topology.ID{"ss-1", "ss-2"} {
		keep(c.AddSubsystem(ss, string(ss), "DS6000"))
		keep(c.AddPort(ss+"-p0", ss, "controller port"))
	}
	keep(c.Cable("hba-1-p0", "sw-1-p0"))
	keep(c.Cable("sw-1-p1", "ss-1-p0"))
	keep(c.Cable("sw-1-p2", "ss-2-p0"))
	keep(c.AddZone("z-1", "hba-1-p0", "ss-1-p0", "ss-2-p0"))
	pools := []struct {
		id    topology.ID
		ss    topology.ID
		disks int
	}{{"pool-A", "ss-1", 4}, {"pool-B", "ss-1", 3}, {"pool-C", "ss-2", 2}}
	for _, p := range pools {
		keep(c.AddPool(p.id, p.ss, string(p.id), "RAID5"))
		for i := 0; i < p.disks; i++ {
			keep(c.AddDisk(topology.ID(fmt.Sprintf("disk-%s%d", p.id[5:], i)), p.id, "disk"))
		}
	}
	for _, v := range []struct{ id, pool topology.ID }{
		{"vol-a1", "pool-A"}, {"vol-a2", "pool-A"}, {"vol-b1", "pool-B"}, {"vol-c1", "pool-C"},
	} {
		keep(c.AddVolume(v.id, v.pool, string(v.id), 100))
		if v.id != "vol-a2" {
			keep(c.MapLUN(v.id, "srv-db"))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// refLoad fills a model with random segments whose ends fall anywhere,
// on monitoring-window edges, or exactly on integration-probe midpoints:
// volume loads (including vol-late, not yet in the topology, and
// vol-ghost, never in it), direct disk utilization, single-disk outages,
// and a stretch where every disk of pool C is out.
func refLoad(m *Model, rnd *simtime.Rand, horizon simtime.Time) {
	const window, sub = 300.0, 15.0
	instant := func() simtime.Time {
		switch rnd.Intn(4) {
		case 0:
			return simtime.Time(float64(rnd.Intn(int(float64(horizon)/window)+1)) * window)
		case 1:
			return simtime.Time(float64(rnd.Intn(int(float64(horizon)/sub)))*sub + sub/2)
		case 2:
			return simtime.Time(float64(rnd.Intn(int(horizon))))
		default:
			return simtime.Time(rnd.Float64() * float64(horizon))
		}
	}
	span := func() simtime.Interval {
		a, b := instant(), instant()
		if a > b {
			a, b = b, a
		}
		if a == b {
			b = a.Add(sub / 2)
		}
		return simtime.NewInterval(a, b)
	}
	vols := []topology.ID{"vol-a1", "vol-a2", "vol-b1", "vol-c1", "vol-late", "vol-ghost"}
	for i := 0; i < 40; i++ {
		m.AddLoad(Load{
			Volume:    vols[rnd.Intn(len(vols))],
			Iv:        span(),
			ReadIOPS:  rnd.Float64() * 400,
			WriteIOPS: rnd.Float64() * 150,
			SeqFrac:   rnd.Float64(),
			Source:    fmt.Sprintf("load-%d", i),
		})
	}
	disks := m.cfg.All(topology.KindDisk)
	for i := 0; i < 8; i++ {
		m.AddDiskUtilization(disks[rnd.Intn(len(disks))], span(), rnd.Float64()*0.5, "rebuild")
	}
	for i := 0; i < 4; i++ {
		m.FailDisk(disks[rnd.Intn(len(disks))], span(), "failure")
	}
	all := span()
	m.FailDisk("disk-C0", all, "pool-down")
	m.FailDisk("disk-C1", all, "pool-down")
}

// TestEmitMatchesReference emits random SAN timelines through the frame
// in random grid-aligned chunkings — a volume joining pool A between two
// chunks, the trailing partial interval last, measurement noise on — and
// requires every sample to equal the long way's by math.Float64bits. A
// twin model truncated at random horizons between chunks must emit the
// same bits as well.
func TestEmitMatchesReference(t *testing.T) {
	for trial := int64(0); trial < 12; trial++ {
		rnd := simtime.NewRand(trial, "emit-reference")
		horizon := simtime.Time(float64(4+rnd.Intn(5))*3600 + float64(1+rnd.Intn(299)))
		build := func() *Model {
			m := NewModel(refSAN(t), DefaultDiskParams())
			refLoad(m, simtime.NewRand(trial, "emit-reference/loads"), horizon)
			return m
		}
		m, trunc := build(), build()
		frameStore, refStore, truncStore := metrics.NewStore(), metrics.NewStore(), metrics.NewStore()
		frameSp, refSp, truncSp := metrics.NewSampler(0.05, trial), metrics.NewSampler(0.05, trial), metrics.NewSampler(0.05, trial)

		var cuts []simtime.Time
		for c := simtime.Time(0); c < horizon; c = c.Add(simtime.Duration(300 * (1 + rnd.Intn(12)))) {
			cuts = append(cuts, c)
		}
		cuts = append(cuts, horizon)
		late := 1 + rnd.Intn(len(cuts)-1)
		for i := 0; i+1 < len(cuts); i++ {
			iv := simtime.NewInterval(cuts[i], cuts[i+1])
			if i == late {
				for _, mm := range []*Model{m, trunc} {
					if err := mm.cfg.AddVolume("vol-late", "pool-A", "late", 10); err != nil {
						t.Fatal(err)
					}
					if err := mm.cfg.MapLUN("vol-late", "srv-db"); err != nil {
						t.Fatal(err)
					}
				}
			}
			if rnd.Intn(3) == 0 {
				trunc.Truncate(simtime.Time(rnd.Float64() * float64(iv.Start)))
			}
			m.Emit(frameStore, frameSp, iv, "srv-db")
			ref{m}.emit(refStore, refSp, iv, "srv-db")
			trunc.Emit(truncStore, truncSp, iv, "srv-db")
		}
		sameBits(t, fmt.Sprintf("trial %d: frame vs reference", trial), frameStore, refStore)
		sameBits(t, fmt.Sprintf("trial %d: truncated vs untruncated", trial), truncStore, frameStore)
	}
}

func sameBits(t *testing.T, what string, got, want *metrics.Store) {
	t.Helper()
	gk, wk := got.Keys(), want.Keys()
	if len(gk) != len(wk) {
		t.Fatalf("%s: %d series, want %d", what, len(gk), len(wk))
	}
	for i, k := range wk {
		if gk[i] != k {
			t.Fatalf("%s: series %d is %v, want %v", what, i, gk[i], k)
		}
		g, w := got.Series(k.Component, k.Metric), want.Series(k.Component, k.Metric)
		if len(g) != len(w) {
			t.Fatalf("%s: %v has %d samples, want %d", what, k, len(g), len(w))
		}
		for j := range w {
			if g[j].T != w[j].T || math.Float64bits(g[j].V) != math.Float64bits(w[j].V) {
				t.Fatalf("%s: %v sample %d = %+v, want %+v", what, k, j, g[j], w[j])
			}
		}
	}
}
