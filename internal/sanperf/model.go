package sanperf

import (
	"fmt"
	"math"
	"sync/atomic"

	"diads/internal/simtime"
	"diads/internal/topology"
)

// DiskParams characterize one class of physical disk.
type DiskParams struct {
	// RandomReadService is the service time of one random read I/O.
	RandomReadService simtime.Duration
	// SequentialReadService is the service time of one sequential read.
	SequentialReadService simtime.Duration
	// WriteService is the service time of one (cached) write.
	WriteService simtime.Duration
	// MaxUtil caps the utilization used in the queueing law; beyond it the
	// model saturates rather than diverging.
	MaxUtil float64
}

// DefaultDiskParams returns parameters resembling an enterprise 15k-RPM FC
// disk behind a controller write cache.
func DefaultDiskParams() DiskParams {
	return DiskParams{
		RandomReadService:     simtime.Duration(0.006), // 6 ms
		SequentialReadService: simtime.Duration(0.0008),
		WriteService:          simtime.Duration(0.002),
		MaxUtil:               0.92,
	}
}

// Load describes an I/O load applied to a volume over an interval.
type Load struct {
	Volume    topology.ID
	Iv        simtime.Interval
	ReadIOPS  float64
	WriteIOPS float64
	// SeqFrac is the fraction of reads that are sequential.
	SeqFrac float64
	// Source names the contributor (workload id, query run id, fault id).
	Source string
}

// Model is the SAN performance model. All mutating methods may be called
// in any order before queries; queries are pure functions of the recorded
// load state.
type Model struct {
	cfg    *topology.Config
	params DiskParams

	reads    *Timeline // key: volKey(vol) — read IOPS
	writes   *Timeline // key: volKey(vol) — write IOPS
	seqReads *Timeline // key: volKey(vol) — sequential read IOPS
	diskUtil *Timeline // key: diskKey(disk) — extra utilization fraction
	outage   *Timeline // key: diskKey(disk) — 1 while disk out of service

	// lay and rts cache the topology per configuration version (see
	// layout); each is published whole, so readers on other goroutines
	// never see one half-built.
	lay atomic.Pointer[layout]
	rts atomic.Pointer[routes]
}

// NewModel returns a performance model over the given SAN configuration.
func NewModel(cfg *topology.Config, params DiskParams) *Model {
	return &Model{
		cfg:      cfg,
		params:   params,
		reads:    NewTimeline(),
		writes:   NewTimeline(),
		seqReads: NewTimeline(),
		diskUtil: NewTimeline(),
		outage:   NewTimeline(),
	}
}

// Config returns the SAN configuration the model operates over.
func (m *Model) Config() *topology.Config { return m.cfg }

// Params returns the disk parameters.
func (m *Model) Params() DiskParams { return m.params }

// Timeline keys are the component IDs themselves: each metric lives in its
// own Timeline, so volume and disk IDs cannot collide and the conversion
// stays allocation-free on the query path.
func volKey(v topology.ID) string  { return string(v) }
func diskKey(d topology.ID) string { return string(d) }

// AddLoad applies an I/O load to a volume.
func (m *Model) AddLoad(l Load) {
	m.reads.Add(volKey(l.Volume), l.Iv, l.ReadIOPS, l.Source)
	m.writes.Add(volKey(l.Volume), l.Iv, l.WriteIOPS, l.Source)
	m.seqReads.Add(volKey(l.Volume), l.Iv, l.ReadIOPS*l.SeqFrac, l.Source)
}

// AddDiskUtilization applies direct extra utilization to a disk, e.g. the
// background traffic of a RAID rebuild.
func (m *Model) AddDiskUtilization(disk topology.ID, iv simtime.Interval, util float64, source string) {
	m.diskUtil.Add(diskKey(disk), iv, util, source)
}

// FailDisk takes a disk out of service for iv: the remaining pool disks
// absorb its share of the load.
func (m *Model) FailDisk(disk topology.ID, iv simtime.Interval, source string) {
	m.outage.Add(diskKey(disk), iv, 1, source)
}

// Truncate drops load, utilization, and outage segments that end at or
// before the horizon, returning how many were dropped. Queries at or
// after the horizon — instantaneous or window means — are bit-identical
// afterwards (see Timeline.Truncate); callers must therefore never emit
// or diagnose below the horizon again, which the evidence low-watermark
// contract guarantees.
func (m *Model) Truncate(before simtime.Time) int {
	n := m.reads.Truncate(before)
	n += m.writes.Truncate(before)
	n += m.seqReads.Truncate(before)
	n += m.diskUtil.Truncate(before)
	n += m.outage.Truncate(before)
	return n
}

// VolumeReadIOPS returns the total read IOPS applied to vol at t.
func (m *Model) VolumeReadIOPS(vol topology.ID, t simtime.Time) float64 {
	return m.reads.At(volKey(vol), t)
}

// volLoad is one volume's read, write and sequential-read segments.
type volLoad struct{ reads, writes, seqReads []Segment }

// diskLoad is one disk's direct-utilization and outage segments.
type diskLoad struct{ util, outage []Segment }

// inService reports whether the disk is in service at t.
func (d *diskLoad) inService(t simtime.Time) bool { return sumAt(d.outage, t) == 0 }

// poolLoad is what the utilization law reads of one pool: its volumes'
// and its disks' segments, each in topology (ID) order. The law is the
// functions below and nothing else; Model's instantaneous queries feed
// it the full timelines at one instant, the emission frame feeds it the
// chunk's segments once per constant piece.
type poolLoad struct {
	vols  []volLoad
	disks []diskLoad
}

// poolState is the law's pool-wide terms at one instant.
type poolState struct {
	n float64 // disks in service
	// demand is the per-disk service demand of the pool's volumes when
	// spread across the n in-service disks, busy seconds per second.
	demand float64
}

// loadOf appends to pl the segments of a pool's volumes and disks and
// returns it; an unknown pool has neither.
func (m *Model) loadOf(pool topology.ID, pl poolLoad) poolLoad {
	l := m.layout()
	pi := l.poolIndex(pool)
	if pi < 0 {
		return pl
	}
	for _, vi := range l.poolVols[pi] {
		v := volKey(l.vols[vi])
		pl.vols = append(pl.vols, volLoad{m.reads.view(v), m.writes.view(v), m.seqReads.view(v)})
	}
	for _, di := range l.poolDisks[pi] {
		pl.disks = append(pl.disks, m.diskLoadOf(l.disks[di]))
	}
	return pl
}

// Point queries read a pool into buffers on their own stack: the
// paper's pools hold a few volumes and up to a dozen disks, and a larger
// pool spills to the heap.
const (
	stackVols  = 8
	stackDisks = 16
)

func (m *Model) diskLoadOf(d topology.ID) diskLoad {
	return diskLoad{m.diskUtil.view(diskKey(d)), m.outage.view(diskKey(d))}
}

// stateAt evaluates the pool-wide terms at t.
func (m *Model) stateAt(pl *poolLoad, t simtime.Time) poolState {
	var st poolState
	for i := range pl.disks {
		if pl.disks[i].inService(t) {
			st.n++
		}
	}
	if st.n == 0 {
		return st
	}
	for _, v := range pl.vols {
		r := sumAt(v.reads, t)
		w := sumAt(v.writes, t)
		var seq float64 // sequential fraction of the volume's reads
		if r > 0 {
			seq = math.Min(1, math.Max(0, sumAt(v.seqReads, t)/r))
		}
		readSvc := float64(m.params.RandomReadService)*(1-seq) +
			float64(m.params.SequentialReadService)*seq
		st.demand += (r*readSvc + w*float64(m.params.WriteService)) / st.n
	}
	return st
}

// diskUtilization is one disk's utilization at t: the pool's shared
// volume demand plus the disk's direct load, or 1 while it is out of
// service.
func (st poolState) diskUtilization(d *diskLoad, t simtime.Time) float64 {
	if !d.inService(t) {
		return 1
	}
	return st.demand + sumAt(d.util, t)
}

// poolUtilization is the mean utilization across the pool's in-service
// disks at t: 0 for a pool without disks, and 1 when every disk failed,
// since each then reads 1.
func (st poolState) poolUtilization(pl *poolLoad, t simtime.Time) float64 {
	switch {
	case len(pl.disks) == 0:
		return 0
	case st.n == 0:
		return 1
	}
	var sum float64
	for i := range pl.disks {
		if pl.disks[i].inService(t) {
			sum += st.diskUtilization(&pl.disks[i], t)
		}
	}
	return sum / st.n
}

// DiskUtilization returns the utilization of one disk at t: the summed
// service demand of every volume striping across it, plus direct disk
// load, adjusted for failed siblings.
func (m *Model) DiskUtilization(disk topology.ID, t simtime.Time) float64 {
	pool := m.cfg.Parent(disk)
	if pool == "" {
		return 0
	}
	var vols [stackVols]volLoad
	var disks [stackDisks]diskLoad
	pl := m.loadOf(pool, poolLoad{vols[:0], disks[:0]})
	d := m.diskLoadOf(disk)
	return m.stateAt(&pl, t).diskUtilization(&d, t)
}

// PoolUtilization returns the mean utilization across a pool's in-service
// disks at t. The shared volume-demand term is computed once for the pool
// rather than once per disk, so the cost is O(disks + volumes) instead of
// O(disks × volumes); per-disk results match DiskUtilization exactly.
func (m *Model) PoolUtilization(pool topology.ID, t simtime.Time) float64 {
	var vols [stackVols]volLoad
	var disks [stackDisks]diskLoad
	pl := m.loadOf(pool, poolLoad{vols[:0], disks[:0]})
	return m.stateAt(&pl, t).poolUtilization(&pl, t)
}

// queueFactor converts utilization into the M/M/1 response multiplier
// 1/(1-rho), saturating at MaxUtil.
func (m *Model) queueFactor(util float64) float64 {
	rho := math.Min(util, m.params.MaxUtil)
	if rho < 0 {
		rho = 0
	}
	return 1 / (1 - rho)
}

// ReadResponse returns the expected response time of one read I/O against
// vol at t. sequential selects the sequential service time.
func (m *Model) ReadResponse(vol topology.ID, t simtime.Time, sequential bool) simtime.Duration {
	svc := m.params.RandomReadService
	if sequential {
		svc = m.params.SequentialReadService
	}
	pool := m.cfg.PoolOf(vol)
	if pool == "" {
		return svc
	}
	return simtime.Duration(float64(svc) * m.queueFactor(m.PoolUtilization(pool, t)))
}

// ContributorsAt names the load sources active on a volume's pool at t —
// the ground truth a diagnosis should recover.
func (m *Model) ContributorsAt(vol topology.ID, t simtime.Time) []string {
	pool := m.cfg.PoolOf(vol)
	seen := make(map[string]bool)
	var out []string
	addAll := func(ss []string) {
		for _, s := range ss {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	for _, v := range m.cfg.VolumesInPool(pool) {
		addAll(m.reads.SourcesAt(volKey(v), t))
		addAll(m.writes.SourcesAt(volKey(v), t))
	}
	for _, d := range m.cfg.ChildrenOfKind(pool, topology.KindDisk) {
		addAll(m.diskUtil.SourcesAt(diskKey(d), t))
	}
	return out
}

// String implements fmt.Stringer with a compact summary.
func (m *Model) String() string {
	return fmt.Sprintf("sanperf.Model(%d volumes, %d disks)",
		len(m.cfg.All(topology.KindVolume)), len(m.cfg.All(topology.KindDisk)))
}
