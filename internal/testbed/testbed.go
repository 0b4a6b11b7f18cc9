// Package testbed assembles the full experimental environment of the
// paper's Figure 1 — the SAN topology, the TPC-H database on volumes V1
// and V2, the monitoring pipeline, and the workload schedule — and
// simulates its timeline, producing the run history and monitoring store
// that DIADS diagnoses.
package testbed

import (
	"fmt"

	"diads/internal/dbsys"
	"diads/internal/exec"
	"diads/internal/metrics"
	"diads/internal/opt"
	"diads/internal/sanperf"
	"diads/internal/simtime"
	"diads/internal/topology"
	"diads/internal/workload"
)

// Well-known component IDs of the Figure 1 environment.
const (
	ServerDB   topology.ID = "srv-db"
	ServerApp1 topology.ID = "srv-app1"
	ServerApp2 topology.ID = "srv-app2"
	Subsystem  topology.ID = "ss-1"
	PoolP1     topology.ID = "pool-P1"
	PoolP2     topology.ID = "pool-P2"
	VolV1      topology.ID = "vol-V1"
	VolV2      topology.ID = "vol-V2"
	VolV3      topology.ID = "vol-V3"
	VolV4      topology.ID = "vol-V4"
	DBInstance             = "db-RepDB" // monitoring component for DB metrics
)

// The paper-reproduction environment's fixed settings.
const (
	// tpchScale is the TPC-H scale factor.
	tpchScale = 1.0
	// cacheMB is the database buffer cache size.
	cacheMB = 32
	// monitorNoise is the log-normal sigma of monitoring samples.
	monitorNoise = 0.05
	// opNoise is the base log-normal sigma on operator times.
	opNoise = 0.06
	// partNoise is extra noise on part leaf operators (the O4 false
	// positive source).
	partNoise = 0.30
)

// Testbed is the assembled environment.
type Testbed struct {
	Cfg     *topology.Config
	SAN     *sanperf.Model
	Cat     *dbsys.Catalog
	Params  *dbsys.Params
	Cache   *dbsys.CacheModel
	Locks   *dbsys.LockManager
	CPULoad *sanperf.Timeline
	Opt     *opt.Optimizer
	Engine  *exec.Engine
	Store   *metrics.Store
	Sampler *metrics.Sampler
	Stats   dbsys.Stats

	// Schedules lists the periodic queries to run.
	Schedules []workload.QuerySchedule
	// Loads lists external SAN workloads.
	Loads []workload.ExternalLoad
	// Changes are applied (see Apply) at their times during Simulate,
	// before any query run starting at the same time.
	Changes []topology.Event

	// Runs is the run history after Simulate.
	Runs []*exec.RunRecord
	// Horizon is the simulated interval after Simulate.
	Horizon simtime.Interval

	// dbAct accumulates per-run database activity rates as runs
	// complete, so metrics can be emitted incrementally during
	// SimulateStream.
	dbAct *sanperf.Timeline

	// lastActivity caches the latest run Stop so the monitoring-horizon
	// end survives Retain trimming the Runs slice.
	lastActivity simtime.Time

	simulated bool
}

// Retain drops evidence strictly below the horizon across the testbed's
// unbounded state: the metric store (whole segments), the SAN model's
// load/utilization/outage segments, the CPU and database-activity
// timelines, and run records that ended before the horizon. Every
// surviving read — window aggregates, instantaneous model queries,
// future metric emission — is bit-identical afterwards, so retention is
// invisible to diagnosis as long as the horizon is the evidence low
// watermark (monitor warm-up, open-event read windows; see
// monitor.Monitor.LowWatermark). Callers must not read below the
// horizon again: streaming drivers call Retain between chunks with
// horizons at or below the emission watermark.
func (tb *Testbed) Retain(horizon simtime.Time) {
	tb.Store.Truncate(horizon)
	tb.SAN.Truncate(horizon)
	tb.CPULoad.Truncate(horizon)
	tb.dbAct.Truncate(horizon)
	kept := tb.Runs[:0]
	for _, r := range tb.Runs {
		if !r.EndsBefore(horizon) {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(tb.Runs); i++ {
		tb.Runs[i] = nil
	}
	if cap(tb.Runs) > 2*len(kept) {
		kept = append(make([]*exec.RunRecord, 0, len(kept)), kept...)
	}
	tb.Runs = kept
}

// NewFigure1 builds the paper's Figure 1 environment: the DB server plus
// two application servers, an edge/core FC fabric, one storage subsystem
// with pool P1 (disks 1-4, volumes V1 and V3) and pool P2 (disks 5-10,
// volumes V2 and V4), TPC-H with partsupp on V1 and everything else on
// V2, and a default schedule of Q2 every 30 minutes. The seed drives all
// randomness.
func NewFigure1(seed int64) (*Testbed, error) {
	cfg := topology.New()
	b := &builder{cfg: cfg}
	b.server(ServerDB, "RedHat Linux DB Server", map[string]string{"os": "RHEL", "role": "database"})
	b.server(ServerApp1, "App Server 1", map[string]string{"role": "application"})
	b.server(ServerApp2, "App Server 2", map[string]string{"role": "application"})
	b.hba("hba-db-1", ServerDB, "QLA2340 #1")
	b.hba("hba-app1-1", ServerApp1, "HBA")
	b.hba("hba-app2-1", ServerApp2, "HBA")
	b.port("hba-db-1-p0", "hba-db-1", "db hba port 0")
	b.port("hba-app1-1-p0", "hba-app1-1", "app1 hba port 0")
	b.port("hba-app2-1-p0", "hba-app2-1", "app2 hba port 0")
	b.fcswitch("sw-edge-1", "EdgeSwitch1", "edge")
	b.fcswitch("sw-core-1", "CoreSwitch1", "core")
	for i := 0; i < 4; i++ {
		b.port(topology.ID(fmt.Sprintf("sw-edge-1-p%d", i)), "sw-edge-1", fmt.Sprintf("edge port %d", i))
		b.port(topology.ID(fmt.Sprintf("sw-core-1-p%d", i)), "sw-core-1", fmt.Sprintf("core port %d", i))
	}
	b.subsystem(Subsystem, "IBM DS6000", "DS6000")
	b.port("ss-1-p0", Subsystem, "controller port 0")
	b.port("ss-1-p1", Subsystem, "controller port 1")
	b.pool(PoolP1, Subsystem, "P1", "RAID5")
	b.pool(PoolP2, Subsystem, "P2", "RAID5")
	for i := 1; i <= 4; i++ {
		b.disk(topology.ID(fmt.Sprintf("disk-%d", i)), PoolP1)
	}
	for i := 5; i <= 10; i++ {
		b.disk(topology.ID(fmt.Sprintf("disk-%d", i)), PoolP2)
	}
	b.volume(VolV1, PoolP1, "V1", 100)
	b.volume(VolV3, PoolP1, "V3", 50)
	b.volume(VolV2, PoolP2, "V2", 200)
	b.volume(VolV4, PoolP2, "V4", 50)

	b.cable("hba-db-1-p0", "sw-edge-1-p0")
	b.cable("hba-app1-1-p0", "sw-edge-1-p1")
	b.cable("hba-app2-1-p0", "sw-edge-1-p2")
	b.cable("sw-edge-1-p3", "sw-core-1-p0")
	b.cable("sw-core-1-p1", "ss-1-p0")
	b.cable("sw-core-1-p2", "ss-1-p1")

	b.zone("z-db", "hba-db-1-p0", "ss-1-p0")
	b.zone("z-app1", "hba-app1-1-p0", "ss-1-p1")
	b.zone("z-app2", "hba-app2-1-p0", "ss-1-p1")
	b.lun(VolV1, ServerDB)
	b.lun(VolV2, ServerDB)
	b.lun(VolV3, ServerApp1)
	b.lun(VolV4, ServerApp2)
	if b.err != nil {
		return nil, fmt.Errorf("testbed: building Figure 1 topology: %w", b.err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	cat := dbsys.NewTPCHCatalog(tpchScale, VolV1, VolV2)
	stats := cat.Snapshot()
	params := dbsys.DefaultParams()
	san := sanperf.NewModel(cfg, sanperf.DefaultDiskParams())
	locks := dbsys.NewLockManager()
	cpu := sanperf.NewTimeline()
	cache := dbsys.NewCacheModel(cacheMB)

	tb := &Testbed{
		Cfg:     cfg,
		SAN:     san,
		Cat:     cat,
		Params:  params,
		Cache:   cache,
		Locks:   locks,
		CPULoad: cpu,
		Opt:     opt.New(cat),
		Store:   metrics.NewStore(),
		Sampler: metrics.NewSampler(monitorNoise, seed),
		Stats:   stats,
		dbAct:   sanperf.NewTimeline(),
	}
	tb.Engine = &exec.Engine{
		Cat:        cat,
		Params:     params,
		Cache:      cache,
		Locks:      locks,
		SAN:        san,
		Server:     ServerDB,
		StatsBase:  stats,
		CPULoad:    cpu,
		Rnd:        simtime.NewRand(seed, "exec"),
		NoiseSigma: opNoise,
		TableNoise: map[string]float64{dbsys.TPart: partNoise},
		RecordLoad: true,
	}

	// Default workload: Q2 every 30 minutes for a full day, plus light
	// background activity on the bystander volumes V3 and V4.
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: 48},
	}
	tb.Loads = []workload.ExternalLoad{
		{Name: "wl-app1-V3", Volume: VolV3, Window: simtime.NewInterval(0, simtime.Time(24*simtime.Hour)),
			ReadIOPS: 15, WriteIOPS: 10, SeqFrac: 0.5, DutyCycle: 1},
		{Name: "wl-app2-V4", Volume: VolV4, Window: simtime.NewInterval(0, simtime.Time(24*simtime.Hour)),
			ReadIOPS: 25, WriteIOPS: 10, SeqFrac: 0.6, DutyCycle: 1},
	}
	return tb, nil
}

// builder collects construction errors so NewFigure1 reads linearly.
type builder struct {
	cfg *topology.Config
	err error
}

func (b *builder) keep(err error) {
	if b.err == nil && err != nil {
		b.err = err
	}
}
func (b *builder) server(id topology.ID, name string, attrs map[string]string) {
	b.keep(b.cfg.AddServer(id, name, attrs))
}
func (b *builder) hba(id, owner topology.ID, name string) { b.keep(b.cfg.AddHBA(id, owner, name)) }
func (b *builder) port(id, owner topology.ID, name string) {
	b.keep(b.cfg.AddPort(id, owner, name))
}
func (b *builder) fcswitch(id topology.ID, name, role string) {
	b.keep(b.cfg.AddSwitch(id, name, role))
}
func (b *builder) subsystem(id topology.ID, name, model string) {
	b.keep(b.cfg.AddSubsystem(id, name, model))
}
func (b *builder) pool(id, ss topology.ID, name, raid string) {
	b.keep(b.cfg.AddPool(id, ss, name, raid))
}
func (b *builder) disk(id, pool topology.ID) { b.keep(b.cfg.AddDisk(id, pool, string(id))) }
func (b *builder) volume(id, pool topology.ID, name string, gb int) {
	b.keep(b.cfg.AddVolume(id, pool, name, gb))
}
func (b *builder) cable(a, p topology.ID)              { b.keep(b.cfg.Cable(a, p)) }
func (b *builder) zone(name string, ps ...topology.ID) { b.keep(b.cfg.AddZone(name, ps...)) }
func (b *builder) lun(v, s topology.ID)                { b.keep(b.cfg.MapLUN(v, s)) }
