package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"diads/internal/metrics"
	"diads/internal/simtime"
)

// The golden evidence hashes pin the simulation rig's output bit for bit.
// They were captured before the SAN model's emission was flattened (one
// frame per chunk, state per constant piece, per-window means computed
// once) and must never move: a change to a sampled value, a noise stream
// or the set of series is a change to every diagnosis downstream, and it
// must show up here, not drift silently through the parity sweeps that
// only compare the rig against itself.

// storeHash is SHA-256 over every series of the store in key order: the
// key, then each sample's T and V bits.
func storeHash(s *metrics.Store) string {
	h := sha256.New()
	var buf [8]byte
	for _, k := range s.Keys() {
		fmt.Fprintf(h, "%s/%s\n", k.Component, k.Metric)
		for _, smp := range s.Series(k.Component, k.Metric) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(smp.T)))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(smp.V))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenScenarioEvidence(t *testing.T) {
	want := map[ScenarioID]string{
		S1SANMisconfig:       "7589400a46f81fec5f8f45039350c114ba351f09bbbf93f8ab8fd68b37e1c5dc",
		S2TwoPoolContention:  "da186bca80d24c0e68456af2c13a45a9469215be53949e1a1d0d3b8a3b3a4a2d",
		S3DataPropertyChange: "aefac1bbcf7b17fbed87bb3b957f2ce5d557d6bf2acba3e9f175f56df8f70f5f",
		S4ConcurrentDBAndSAN: "6415e9f78717a7db17845f96096465bcff2f1fd72365f302d1543331bb27911f",
		S5LockingWithNoise:   "a9e942e8dec5623a8551392d1f0dd297bcd43503f30ebd9abf882eddbb27fb92",
		SPlanRegression:      "3b61e938843634f768eecc6dfbed7e02c0e22bb3a9d69883e033c2a4fb820649",
		SCPUSaturation:       "66bfb293aef134ed7e90d352693bd4df2fa880fab2763d98e398dce34f1c9131",
		SDiskFailure:         "db2cfdc717e31c5397a7aaed87260fe142e06c0fa954e206d07ef755ea8e4f76",
		SRAIDRebuild:         "52d9522ce31001ff6bda1614feaa6b286327199da68f099b51be4035d56167d6",
	}
	for id := S1SANMisconfig; id <= SRAIDRebuild; id++ {
		sc, err := Build(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := storeHash(sc.Testbed.Store); got != want[id] {
			t.Errorf("scenario %d: evidence hash %s, want %s", id, got, want[id])
		}
	}
}

// TestGoldenOnlineEvidence pins the 48-run online day — faulty and
// healthy, emitted in one batch and in 30-minute chunks — on three seeds.
// Chunking must not matter, so both chunkings share one hash.
func TestGoldenOnlineEvidence(t *testing.T) {
	want := map[string]string{
		"seed1/faulty":  "d610ee31b9f97aef72bb56cbf35be1d33efde92dad17e710d1035f9a357b921d",
		"seed1/healthy": "6bdd644fabaaa1b67ffbfc0b2b4d8f0195f6444c6c04e761cb5a4523192122da",
		"seed2/faulty":  "f06684a84d39e5c0ce8839016800fa471e0a9e296174eb8e5b01ddb6cf50bf0a",
		"seed2/healthy": "4bcae81d3c15b444654460aa946e2e0dc99e1e877cd8fba770fe93bbe3dcba0a",
		"seed3/faulty":  "a2a3007c9bb0e7907daa6959d12dd3cea86ba844c685b16e31fac8cb828c54a2",
		"seed3/healthy": "b2ef72bc6c6e28aaad66172815cfd20cff80485c35be1769d1739b07ba457af2",
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, healthy := range []bool{false, true} {
			name := fmt.Sprintf("seed%d/faulty", seed)
			if healthy {
				name = fmt.Sprintf("seed%d/healthy", seed)
			}
			for _, chunk := range []simtime.Duration{0, 30 * simtime.Minute} {
				env, err := BuildOnline(OnlineSpec{Seed: seed, Runs: 48, NoFault: healthy})
				if err != nil {
					t.Fatal(err)
				}
				if err := env.Testbed.SimulateStream(chunk, nil); err != nil {
					t.Fatal(err)
				}
				if got := storeHash(env.Testbed.Store); got != want[name] {
					t.Errorf("%s chunk %v: evidence hash %s, want %s", name, chunk, got, want[name])
				}
			}
		}
	}
}

// TestGoldenFleetReport pins the rendered report of diadsperf's fleet-sim
// spec on seed 1.
func TestGoldenFleetReport(t *testing.T) {
	const want = "a21d67b6d507dbf731f9b23cc59dd856d513a0bae873fa083189cb6d5f8eaed8"
	rep, _, err := RunFleetSpec(FleetSpec{
		Seed: 1, Instances: 32, Degraded: 24, Runs: 12, Shards: 2,
		MaxStreams: 2, Retention: true, ResidentCap: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(rep.Render()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("fleet report hash %s, want %s", got, want)
	}
}
