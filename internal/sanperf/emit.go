package sanperf

import (
	"slices"

	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// I/O transfer sizes used to derive byte-rate metrics from IOPS.
const (
	randomIOKB     = 16
	sequentialIOKB = 64
)

// Emit samples the model's ground-truth behaviour over iv and records the
// monitoring series a storage management tool would collect: per-volume
// rates and response times (including the writeIO/writeTime metrics of
// the paper's Table 2), per-disk physical I/O, per-pool and
// per-subsystem aggregates, and the FC-port traffic on the routes from
// server to each volume it is mapped to.
//
// Rate metrics (IOPS, bytes) use exact interval averages, so even bursts
// much shorter than the monitoring interval contribute their share —
// smeared, exactly as the paper's "noisy data" challenge describes.
// Response-time metrics are integrated numerically, so sub-interval blips
// can be missed entirely, another realistic monitoring inaccuracy.
//
// The model is evaluated once per constant piece and once per monitoring
// window (see frame), not once per probe per series; every sample is
// bit-identical to evaluating the utilization law and Timeline.MeanOver
// per probe (emit_reference_test.go).
func (m *Model) Emit(store *metrics.Store, sp *metrics.Sampler, iv simtime.Interval, server topology.ID) {
	f := m.newFrame(sp.Windows(iv), iv, server)
	means := func(comp string, metric metrics.Metric, fn func(i int) float64) {
		sp.RecordWindowMean(store, comp, metric, iv, func(i int, _ simtime.Interval) float64 { return fn(i) })
	}
	rr, wr := m.params.RandomReadService, m.params.WriteService
	for vi := range f.vols {
		v := &f.vols[vi]
		comp := string(v.id)
		// writeIO is reported at the array-site level, as the DS6000's
		// rank counters do: every write landing on the volume's backing
		// disks counts, including other volumes of the pool. This is why
		// the paper's Table 2 shows V1's writeIO anomalous under V'
		// contention although the database itself writes nothing to V1.
		poolWrite := v.write
		if v.pool >= 0 {
			poolWrite = f.pools[v.pool].write
		}
		means(comp, metrics.VolReadIO, func(i int) float64 { return v.read[i] })
		means(comp, metrics.VolWriteIO, func(i int) float64 { return poolWrite[i] })
		means(comp, metrics.StContaminatingWr, func(i int) float64 { return poolWrite[i] - v.write[i] })
		sp.Record(store, comp, metrics.VolReadTime, iv, func(t simtime.Time) float64 {
			return float64(simtime.Duration(float64(rr)*f.poolQF(v.pool, t))) * 1000 // ms
		})
		sp.Record(store, comp, metrics.VolWriteTime, iv, func(t simtime.Time) float64 {
			return float64(simtime.Duration(float64(wr)*f.poolQF(v.pool, t))) * 1000 // ms
		})
		means(comp, metrics.StBytesRead, func(i int) float64 {
			seq := v.seq[i]
			rnd := v.read[i] - seq
			return seq*sequentialIOKB + rnd*randomIOKB // KB/s
		})
		means(comp, metrics.StBytesWritten, func(i int) float64 { return v.write[i] * randomIOKB })
		means(comp, metrics.StSeqReadRequests, func(i int) float64 { return v.seq[i] })
		means(comp, metrics.StTotalIOs, func(i int) float64 { return v.read[i] + v.write[i] })
	}
	for di := range f.disks {
		d := &f.disks[di]
		comp := string(d.id)
		means(comp, metrics.StPhysReadOps, func(i int) float64 { return f.share(d, i, true) })
		means(comp, metrics.StPhysWriteOps, func(i int) float64 { return f.share(d, i, false) })
		sp.Record(store, comp, metrics.StPhysReadTime, iv, func(t simtime.Time) float64 {
			return float64(rr) * f.diskQF(d, t) * 1000
		})
		sp.Record(store, comp, metrics.StPhysWriteTime, iv, func(t simtime.Time) float64 {
			return float64(wr) * f.diskQF(d, t) * 1000
		})
		means(comp, metrics.StTotalIOs, func(i int) float64 { return f.share(d, i, true) + f.share(d, i, false) })
	}
	for pi := range f.pools {
		p := &f.pools[pi]
		means(string(p.id), metrics.StTotalIOs, func(i int) float64 { return p.total[i] })
	}
	for si, ss := range f.lay.subsystems {
		pools := f.lay.subPools[si]
		means(string(ss), metrics.StTotalIOs, func(i int) float64 {
			var sum float64
			for _, pi := range pools {
				for _, vi := range f.pools[pi].vols {
					sum += f.vols[vi].read[i] + f.vols[vi].write[i]
				}
			}
			return sum
		})
	}
	for pi := range f.ports {
		p := &f.ports[pi]
		comp := string(p.id)
		means(comp, metrics.NetBytesTransmitted, func(i int) float64 { return p.traffic[i] })
		means(comp, metrics.NetBytesReceived, func(i int) float64 { return p.traffic[i] })
		means(comp, metrics.NetPacketsTransmitted, func(i int) float64 { return p.traffic[i] / 2 }) // 2KB frames
		sp.Record(store, comp, metrics.NetErrorFrames, iv, func(simtime.Time) float64 { return 0 })
		sp.Record(store, comp, metrics.NetCRCErrors, iv, func(simtime.Time) float64 { return 0 })
	}
}

// frame is one Emit call's view of the model: the topology as the
// layout of its version holds it, the segments that reach into the chunk
// read once, the pool state evaluated once per constant piece and the
// rate means once per monitoring window. Nothing in it outlives the call.
//
// Reading the segments once gives the same bits as reading them per probe
// because the model does not change during an emission: Add and Truncate
// run on the instance's own goroutine — loads as runs execute, Truncate
// from Retain in onChunk or at fleet barriers — never while Emit runs.
//
// Why pieces are exact: every instantaneous quantity of a pool (its
// in-service disks, its volume demand, its and each disk's utilization)
// is a function of which of its segments contain t, and that set can
// change only at a segment's Start or End. Between two consecutive such
// breakpoints the law therefore yields the same bits at every instant,
// and evaluating it at the first probe that lands there serves every
// other probe of that piece.
type frame struct {
	m     *Model
	lay   *layout
	wins  []simtime.Interval // the sampler's monitoring windows over the chunk
	vols  []volFrame         // every volume, by ID
	disks []diskFrame        // every disk, by ID
	pools []poolFrame        // every pool, by ID
	ports []portFrame        // FC ports on the server's routes, by ID
}

type volFrame struct {
	id               topology.ID
	pool             int // index into frame.pools; -1 outside any pool
	load             volLoad
	read, write, seq []float64 // per-window means
}

type diskFrame struct {
	id   topology.ID
	pool int // index into frame.pools (a disk always sits in a pool)
	slot int // index among the pool's disks
}

type poolFrame struct {
	id   topology.ID
	load poolLoad
	vols []int // frame.vols indices, in load.vols order (the layout's; read-only)
	// bounds are the sorted distinct Starts and Ends of every segment in
	// load: piece k is [bounds[k-1], bounds[k]), open at both extremes.
	bounds []simtime.Time
	pieces []piece
	// diskOn and diskQF hold, piece-major, each disk's service state and
	// the queue factor of its utilization.
	diskOn             []bool
	diskQF             []float64
	read, write, total []float64 // per-window sums over the pool's volumes
}

// piece is the pool state on one constant piece, filled on first probe.
type piece struct {
	done bool
	n    float64 // disks in service
	qf   float64 // queue factor of the pool utilization
}

type portFrame struct {
	routePort           // the layout's; read-only
	traffic   []float64 // per-window KB/s
}

func (m *Model) newFrame(wins []simtime.Interval, iv simtime.Interval, server topology.ID) *frame {
	l := m.layout()
	f := &frame{m: m, lay: l, wins: wins}

	// One lock acquisition per timeline; the segments land in one arena,
	// key after key, in the order span reads them back.
	var segs []Segment
	var ends []int
	segs, ends = appendInside(m.reads, segs, ends, l.vols, iv)
	segs, ends = appendInside(m.writes, segs, ends, l.vols, iv)
	segs, ends = appendInside(m.seqReads, segs, ends, l.vols, iv)
	segs, ends = appendInside(m.diskUtil, segs, ends, l.disks, iv)
	segs, ends = appendInside(m.outage, segs, ends, l.disks, iv)
	span := func(j int) []Segment {
		lo := 0
		if j > 0 {
			lo = ends[j-1]
		}
		return segs[lo:ends[j]:ends[j]]
	}
	nv, nd := len(l.vols), len(l.disks)

	f.vols = make([]volFrame, nv)
	for vi, id := range l.vols {
		f.vols[vi] = volFrame{id: id, pool: l.volPool[vi],
			load: volLoad{span(vi), span(nv + vi), span(2*nv + vi)}}
	}
	f.disks = make([]diskFrame, nd)
	for di, id := range l.disks {
		f.disks[di] = diskFrame{id: id, pool: l.diskPool[di], slot: l.diskSlot[di]}
	}
	f.pools = make([]poolFrame, len(l.pools))
	for pi, id := range l.pools {
		p := &f.pools[pi]
		p.id, p.vols = id, l.poolVols[pi]
		p.load = poolLoad{make([]volLoad, len(p.vols)), make([]diskLoad, len(l.poolDisks[pi]))}
		for i, vi := range p.vols {
			p.load.vols[i] = f.vols[vi].load
		}
		for i, di := range l.poolDisks[pi] {
			p.load.disks[i] = diskLoad{span(3*nv + di), span(3*nv + nd + di)}
		}
		p.cut()
	}
	rs := m.routes(l, server).ports
	f.ports = make([]portFrame, len(rs))
	for i, r := range rs {
		f.ports[i] = portFrame{routePort: r}
	}

	// Per-window means: three per volume, three sums per pool, one
	// traffic series per port, all in one backing array.
	w := len(wins)
	buf := make([]float64, w*(3*nv+3*len(f.pools)+len(f.ports)))
	next := func() []float64 {
		s := buf[:w:w]
		buf = buf[w:]
		return s
	}
	for vi := range f.vols {
		v := &f.vols[vi]
		v.read = windowMeans(v.load.reads, wins, next())
		v.write = windowMeans(v.load.writes, wins, next())
		v.seq = windowMeans(v.load.seqReads, wins, next())
	}
	for pi := range f.pools {
		p := &f.pools[pi]
		p.read, p.write, p.total = next(), next(), next()
		for i := range wins {
			for _, vi := range p.vols {
				v := &f.vols[vi]
				p.read[i] += v.read[i]
				p.write[i] += v.write[i]
				p.total[i] += v.read[i] + v.write[i]
			}
		}
	}
	for pi := range f.ports {
		p := &f.ports[pi]
		p.traffic = next()
		for i := range wins {
			for _, vi := range p.vols {
				v := &f.vols[vi]
				seq := v.seq[i]
				rnd := v.read[i] - seq
				p.traffic[i] += seq*sequentialIOKB + rnd*randomIOKB
				p.traffic[i] += v.write[i] * randomIOKB
			}
		}
	}
	return f
}

// cut collects the pool's breakpoints and sizes its pieces.
func (p *poolFrame) cut() {
	add := func(segs []Segment) {
		for _, s := range segs {
			p.bounds = append(p.bounds, s.Iv.Start, s.Iv.End)
		}
	}
	for _, v := range p.load.vols {
		add(v.reads)
		add(v.writes)
		add(v.seqReads)
	}
	for _, d := range p.load.disks {
		add(d.util)
		add(d.outage)
	}
	slices.Sort(p.bounds)
	p.bounds = slices.Compact(p.bounds)
	np := len(p.bounds) + 1
	p.pieces = make([]piece, np)
	p.diskOn = make([]bool, np*len(p.load.disks))
	p.diskQF = make([]float64, np*len(p.load.disks))
}

// piece returns the index of the piece holding t, evaluating the pool's
// state there if no earlier probe has.
func (f *frame) piece(p *poolFrame, t simtime.Time) int {
	k, found := slices.BinarySearch(p.bounds, t)
	if found {
		k++ // t is a breakpoint: it opens the next piece
	}
	pc := &p.pieces[k]
	if pc.done {
		return k
	}
	m := f.m
	st := m.stateAt(&p.load, t)
	pc.n = st.n
	pc.qf = m.queueFactor(st.poolUtilization(&p.load, t))
	nd := len(p.load.disks)
	for i := range p.load.disks {
		d := &p.load.disks[i]
		p.diskOn[k*nd+i] = d.inService(t)
		p.diskQF[k*nd+i] = m.queueFactor(st.diskUtilization(d, t))
	}
	pc.done = true
	return k
}

// poolQF is the queue factor of a pool's utilization at t; 1 outside any
// pool, where a response is the bare service time (svc*1 is exact).
func (f *frame) poolQF(pool int, t simtime.Time) float64 {
	if pool < 0 {
		return 1
	}
	p := &f.pools[pool]
	return p.pieces[f.piece(p, t)].qf
}

// diskQF is the queue factor of a disk's utilization at t.
func (f *frame) diskQF(d *diskFrame, t simtime.Time) float64 {
	p := &f.pools[d.pool]
	return p.diskQF[f.piece(p, t)*len(p.load.disks)+d.slot]
}

// share is a disk's part of its pool's read (or write) IOPS over window
// i: the pool's volume means split evenly across the disks in service at
// the window's midpoint, 0 for a disk out of service.
func (f *frame) share(d *diskFrame, i int, read bool) float64 {
	p := &f.pools[d.pool]
	w := f.wins[i]
	k := f.piece(p, w.Start.Add(w.Length()/2))
	if !p.diskOn[k*len(p.load.disks)+d.slot] {
		return 0
	}
	n := p.pieces[k].n
	if read {
		return p.read[i] / n
	}
	return p.write[i] / n
}
