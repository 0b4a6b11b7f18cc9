package sanperf

import (
	"math"
	"sync"
	"testing"

	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// buildSAN creates two pools with volumes: P1{V1, Vp} (4 disks),
// P2{V2} (6 disks), mirroring the Figure 1 layout.
func buildSAN(t testing.TB) *topology.Config {
	t.Helper()
	c := topology.New()
	steps := []error{
		c.AddServer("srv-db", "db", nil),
		c.AddSubsystem("ss-1", "DS6000", "IBM"),
		c.AddPool("pool-P1", "ss-1", "P1", "RAID5"),
		c.AddPool("pool-P2", "ss-1", "P2", "RAID5"),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []topology.ID{"disk-1", "disk-2", "disk-3", "disk-4"} {
		if err := c.AddDisk(d, "pool-P1", string(d)); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []topology.ID{"disk-5", "disk-6", "disk-7", "disk-8", "disk-9", "disk-10"} {
		if err := c.AddDisk(d, "pool-P2", string(d)); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []struct {
		id   topology.ID
		pool topology.ID
	}{{"vol-V1", "pool-P1"}, {"vol-Vp", "pool-P1"}, {"vol-V2", "pool-P2"}} {
		if err := c.AddVolume(v.id, v.pool, string(v.id), 100); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestTimelineSumAndMean(t *testing.T) {
	tl := NewTimeline()
	tl.Add("k", simtime.NewInterval(0, 100), 5, "a")
	tl.Add("k", simtime.NewInterval(50, 150), 3, "b")
	if got := tl.At("k", 25); got != 5 {
		t.Fatalf("At(25): %v", got)
	}
	if got := tl.At("k", 75); got != 8 {
		t.Fatalf("At(75): %v", got)
	}
	if got := tl.At("k", 125); got != 3 {
		t.Fatalf("At(125): %v", got)
	}
	if got := tl.At("k", 200); got != 0 {
		t.Fatalf("At(200): %v", got)
	}
	// Mean over [0,100): 5 everywhere + 3 over half = 6.5.
	if got := tl.MeanOver("k", simtime.NewInterval(0, 100)); math.Abs(got-6.5) > 1e-9 {
		t.Fatalf("MeanOver: %v", got)
	}
	src := tl.SourcesAt("k", 75)
	if len(src) != 2 || src[0] != "a" || src[1] != "b" {
		t.Fatalf("SourcesAt: %v", src)
	}
}

func TestTimelineIgnoresEmptySegments(t *testing.T) {
	tl := NewTimeline()
	tl.Add("k", simtime.NewInterval(10, 10), 5, "a") // zero length
	tl.Add("k", simtime.NewInterval(0, 10), 0, "a")  // zero value
	if len(tl.Segments("k")) != 0 {
		t.Fatalf("empty segments should be dropped")
	}
}

func TestSharedDiskContention(t *testing.T) {
	// The central causal mechanism of scenario 1: load on V' (same pool as
	// V1) slows V1's reads but leaves V2 untouched.
	cfg := buildSAN(t)
	m := NewModel(cfg, DefaultDiskParams())
	iv := simtime.NewInterval(1000, 2000)

	baseV1 := m.ReadResponse("vol-V1", 1500, false)
	baseV2 := m.ReadResponse("vol-V2", 1500, false)

	m.AddLoad(Load{Volume: "vol-Vp", Iv: iv, ReadIOPS: 300, WriteIOPS: 150, Source: "wl-external"})

	hotV1 := m.ReadResponse("vol-V1", 1500, false)
	hotV2 := m.ReadResponse("vol-V2", 1500, false)

	if hotV1 <= baseV1 {
		t.Fatalf("V1 response should rise under V' load: %v -> %v", baseV1, hotV1)
	}
	if float64(hotV1)/float64(baseV1) < 1.5 {
		t.Fatalf("V1 should slow substantially, got factor %.2f", float64(hotV1)/float64(baseV1))
	}
	if hotV2 != baseV2 {
		t.Fatalf("V2 (other pool) must be unaffected: %v -> %v", baseV2, hotV2)
	}
	// Outside the load window V1 recovers.
	if after := m.ReadResponse("vol-V1", 2500, false); after != baseV1 {
		t.Fatalf("V1 should recover after the load window: %v vs %v", after, baseV1)
	}
}

func TestQueueFactorSaturates(t *testing.T) {
	cfg := buildSAN(t)
	m := NewModel(cfg, DefaultDiskParams())
	iv := simtime.NewInterval(0, 100)
	// Overwhelming load must produce a finite response.
	m.AddLoad(Load{Volume: "vol-V1", Iv: iv, ReadIOPS: 1e9, Source: "flood"})
	r := m.ReadResponse("vol-V1", 50, false)
	if math.IsInf(float64(r), 0) || math.IsNaN(float64(r)) {
		t.Fatalf("response must saturate, got %v", r)
	}
	maxFactor := 1 / (1 - DefaultDiskParams().MaxUtil)
	want := float64(DefaultDiskParams().RandomReadService) * maxFactor
	if math.Abs(float64(r)-want) > 1e-9 {
		t.Fatalf("saturated response: got %v, want %v", float64(r), want)
	}
}

func TestSequentialCheaperThanRandom(t *testing.T) {
	cfg := buildSAN(t)
	m := NewModel(cfg, DefaultDiskParams())
	if m.ReadResponse("vol-V1", 0, true) >= m.ReadResponse("vol-V1", 0, false) {
		t.Fatalf("sequential reads should be cheaper")
	}
}

func TestDiskFailureShiftsLoad(t *testing.T) {
	cfg := buildSAN(t)
	m := NewModel(cfg, DefaultDiskParams())
	iv := simtime.NewInterval(0, 1000)
	m.AddLoad(Load{Volume: "vol-V1", Iv: iv, ReadIOPS: 200, Source: "steady"})
	before := m.DiskUtilization("disk-1", 500)
	m.FailDisk("disk-4", simtime.NewInterval(400, 600), "fault")
	during := m.DiskUtilization("disk-1", 500)
	after := m.DiskUtilization("disk-1", 700)
	if during <= before {
		t.Fatalf("surviving disks must absorb load: %v -> %v", before, during)
	}
	if math.Abs(after-before) > 1e-12 {
		t.Fatalf("utilization should recover after outage: %v vs %v", after, before)
	}
	if got := m.DiskUtilization("disk-4", 500); got != 1 {
		t.Fatalf("failed disk utilization should read 1, got %v", got)
	}
}

func TestRAIDRebuildUtilization(t *testing.T) {
	cfg := buildSAN(t)
	m := NewModel(cfg, DefaultDiskParams())
	m.AddDiskUtilization("disk-2", simtime.NewInterval(100, 200), 0.5, "rebuild")
	if got := m.DiskUtilization("disk-2", 150); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("rebuild util: %v", got)
	}
	if got := m.DiskUtilization("disk-2", 250); got != 0 {
		t.Fatalf("rebuild should end: %v", got)
	}
}

func TestResponseMonotoneInLoad(t *testing.T) {
	// Property: adding load never decreases any volume's response time.
	cfg := buildSAN(t)
	m := NewModel(cfg, DefaultDiskParams())
	iv := simtime.NewInterval(0, 1000)
	rnd := simtime.NewRand(3, "monotone")
	prev := m.ReadResponse("vol-V1", 500, false)
	for i := 0; i < 50; i++ {
		m.AddLoad(Load{
			Volume:   "vol-Vp",
			Iv:       iv,
			ReadIOPS: rnd.Float64() * 20,
			Source:   "inc",
		})
		cur := m.ReadResponse("vol-V1", 500, false)
		if cur < prev {
			t.Fatalf("response decreased after adding load: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

func TestContributorsAt(t *testing.T) {
	cfg := buildSAN(t)
	m := NewModel(cfg, DefaultDiskParams())
	m.AddLoad(Load{Volume: "vol-Vp", Iv: simtime.NewInterval(0, 100), ReadIOPS: 10, Source: "wl-x"})
	m.AddDiskUtilization("disk-1", simtime.NewInterval(0, 100), 0.1, "rebuild-1")
	got := m.ContributorsAt("vol-V1", 50)
	if len(got) != 2 {
		t.Fatalf("contributors: %v", got)
	}
}

func TestEmitMetricsProducesSeries(t *testing.T) {
	cfg := buildSAN(t)
	m := NewModel(cfg, DefaultDiskParams())
	iv := simtime.NewInterval(0, simtime.Time(time30min()))
	m.AddLoad(Load{Volume: "vol-V1", Iv: iv, ReadIOPS: 100, WriteIOPS: 40, Source: "q"})
	store := metrics.NewStore()
	sp := metrics.NewSampler(0, 0)
	m.Emit(store, sp, iv, "srv-db")

	rio := store.Series("vol-V1", metrics.VolReadIO)
	if len(rio) != 6 {
		t.Fatalf("readIO samples: %d", len(rio))
	}
	if math.Abs(rio[0].V-100) > 1e-9 {
		t.Fatalf("readIO value: %v", rio[0].V)
	}
	wt := store.Series("vol-V1", metrics.VolWriteTime)
	if len(wt) == 0 || wt[0].V <= 0 {
		t.Fatalf("writeTime missing or nonpositive: %v", wt)
	}
	// Disk series exist for pool P1 disks.
	if len(store.Series("disk-1", metrics.StPhysReadOps)) == 0 {
		t.Fatalf("disk metrics missing")
	}
	// Pool and subsystem aggregates exist.
	if len(store.Series("pool-P1", metrics.StTotalIOs)) == 0 {
		t.Fatalf("pool metrics missing")
	}
	if len(store.Series("ss-1", metrics.StTotalIOs)) == 0 {
		t.Fatalf("subsystem metrics missing")
	}
}

// TestQueriesDuringAddAndTruncate runs the instantaneous queries on
// several goroutines while another adds and truncates segments, as
// diagnosis workers do beside a streaming instance: the law reads the
// slices Timeline.view returns after the lock is released, which is race
// free only because Add appends past them and Truncate replaces them.
func TestQueriesDuringAddAndTruncate(t *testing.T) {
	m := NewModel(buildSAN(t), DefaultDiskParams())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, at := range []simtime.Time{100, 900, 1700} {
					m.PoolUtilization("pool-P1", at)
					m.DiskUtilization("disk-3", at)
					m.ReadResponse("vol-V1", at, false)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		at := simtime.Time(i)
		m.AddLoad(Load{Volume: "vol-Vp", Iv: simtime.NewInterval(at, at+50), ReadIOPS: 10, WriteIOPS: 5, SeqFrac: 0.5, Source: "w"})
		m.FailDisk("disk-3", simtime.NewInterval(at, at+20), "f")
		if i%25 == 0 {
			m.Truncate(at - 100)
		}
	}
	close(stop)
	wg.Wait()
}

func time30min() simtime.Duration { return 30 * simtime.Minute }
