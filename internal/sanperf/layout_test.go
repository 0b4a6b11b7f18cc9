package sanperf

import (
	"fmt"
	"sync"
	"testing"

	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// TestLayoutFollowsTopologyVersion emits a random SAN timeline in hourly
// chunks through one model while the topology changes between chunks: a
// volume is carved and LUN-mapped, a second path is cabled and zoned,
// and the first zone is removed, which reroutes one subsystem's traffic.
// Every sample must equal a fresh model's over the same configuration,
// and so must the point queries after each change; every mutator must
// move Config.Version.
func TestLayoutFollowsTopologyVersion(t *testing.T) {
	const seed = 7
	horizon := simtime.Time(4 * 3600)
	cfg := refSAN(t)
	build := func() *Model {
		m := NewModel(cfg, DefaultDiskParams())
		refLoad(m, simtime.NewRand(seed, "layout-version/loads"), horizon)
		return m
	}
	m := build()
	got, want := metrics.NewStore(), metrics.NewStore()
	gotSp, wantSp := metrics.NewSampler(0.05, seed), metrics.NewSampler(0.05, seed)

	moves := func(what string, mutate func() error) {
		t.Helper()
		v := cfg.Version()
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if cfg.Version() == v {
			t.Fatalf("%s did not move Version() from %d", what, v)
		}
	}
	changes := []func(){
		1: func() {
			moves("AddVolume", func() error { return cfg.AddVolume("vol-late", "pool-A", "late", 10) })
			moves("MapLUN", func() error { return cfg.MapLUN("vol-late", "srv-db") })
		},
		2: func() {
			moves("AddPort", func() error { return cfg.AddPort("sw-1-p3", "sw-1", "switch port") })
			moves("AddPort", func() error { return cfg.AddPort("ss-2-p1", "ss-2", "controller port") })
			moves("Cable", func() error { return cfg.Cable("sw-1-p3", "ss-2-p1") })
			moves("AddZone", func() error { return cfg.AddZone("z-2", "hba-1-p0", "ss-1-p0", "ss-2-p1") })
		},
		3: func() {
			moves("RemoveZone", func() error {
				if !cfg.RemoveZone("z-1") {
					return fmt.Errorf("zone z-1 not found")
				}
				return nil
			})
			v := cfg.Version()
			if cfg.RemoveZone("z-1") || cfg.Version() != v {
				t.Fatal("removing an absent zone changed the configuration")
			}
		},
	}
	probe := []simtime.Time{0, 1800, 5400, 9000, 12600}
	for i := 0; i < 4; i++ {
		// Warm the point queries' layout before the change they must see.
		for _, at := range probe {
			m.PoolUtilization("pool-A", at)
		}
		if i < len(changes) && changes[i] != nil {
			changes[i]()
		}
		iv := simtime.NewInterval(simtime.Time(i*3600), simtime.Time((i+1)*3600))
		m.Emit(got, gotSp, iv, "srv-db")
		fresh := build()
		fresh.Emit(want, wantSp, iv, "srv-db")
		for _, at := range probe {
			for _, pool := range []topology.ID{"pool-A", "pool-B", "pool-C"} {
				if g, w := m.PoolUtilization(pool, at), fresh.PoolUtilization(pool, at); g != w {
					t.Fatalf("chunk %d: PoolUtilization(%s, %v) = %v, fresh model %v", i, pool, at, g, w)
				}
			}
			if g, w := m.ReadResponse("vol-a1", at, false), fresh.ReadResponse("vol-a1", at, false); g != w {
				t.Fatalf("chunk %d: ReadResponse(vol-a1, %v) = %v, fresh model %v", i, at, g, w)
			}
		}
	}
	sameBits(t, "cached layout vs fresh model", got, want)
	if len(got.Series("vol-late", metrics.VolReadIO)) == 0 || len(got.Series("ss-2-p1", metrics.NetBytesReceived)) == 0 {
		t.Fatal("the changes never reached emission")
	}
}

// TestQueriesDuringLayoutRebuild changes the topology between rounds,
// while nothing reads, and then runs the point queries on several
// goroutines while Emit runs on another: every goroutine finds the
// layout stale and may rebuild it. Under -race this holds the layout's
// publication; the answers must match a twin model queried alone.
func TestQueriesDuringLayoutRebuild(t *testing.T) {
	horizon := simtime.Time(2 * 3600)
	cfg := refSAN(t)
	m, twin := NewModel(cfg, DefaultDiskParams()), NewModel(cfg, DefaultDiskParams())
	refLoad(m, simtime.NewRand(3, "layout-race/loads"), horizon)
	refLoad(twin, simtime.NewRand(3, "layout-race/loads"), horizon)
	store, sp := metrics.NewStore(), metrics.NewSampler(0.05, 3)
	pools := []topology.ID{"pool-A", "pool-B", "pool-C"}
	at := []simtime.Time{600, 2400, 4200, 6600}
	const rounds = 8
	for r := 0; r < rounds; r++ {
		vol := topology.ID(fmt.Sprintf("vol-r%d", r))
		if err := cfg.AddVolume(vol, pools[r%len(pools)], string(vol), 10); err != nil {
			t.Fatal(err)
		}
		if err := cfg.MapLUN(vol, "srv-db"); err != nil {
			t.Fatal(err)
		}
		l := Load{Volume: vol, Iv: simtime.NewInterval(0, horizon), ReadIOPS: 40, WriteIOPS: 10, Source: string(vol)}
		m.AddLoad(l)
		twin.AddLoad(l)
		want := make([]float64, 0, len(at)*(len(pools)+1))
		for _, tt := range at {
			for _, p := range pools {
				want = append(want, twin.PoolUtilization(p, tt))
			}
			want = append(want, float64(twin.ReadResponse(vol, tt, false)))
		}

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 20 {
					i := 0
					for _, tt := range at {
						for _, p := range pools {
							if got := m.PoolUtilization(p, tt); got != want[i] {
								t.Errorf("round %d: PoolUtilization(%s, %v) = %v, want %v", r, p, tt, got, want[i])
								return
							}
							i++
						}
						if got := float64(m.ReadResponse(vol, tt, false)); got != want[i] {
							t.Errorf("round %d: ReadResponse(%s, %v) = %v, want %v", r, vol, tt, got, want[i])
							return
						}
						i++
					}
				}
			}()
		}
		step := horizon / rounds
		m.Emit(store, sp, simtime.NewInterval(simtime.Time(r)*step, simtime.Time(r+1)*step), "srv-db")
		wg.Wait()
	}
}
