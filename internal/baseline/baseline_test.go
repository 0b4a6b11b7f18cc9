package baseline

import (
	"strings"
	"testing"

	"diads/internal/diag"
	"diads/internal/faults"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
	"diads/internal/workload"
)

// scenario1WithV2Burst reproduces the paper's robustness variant: V1
// contention from the misconfigured V', plus bursty extra load on V2 that
// barely affects the query.
func scenario1WithV2Burst(t testing.TB, seed int64) (*testbed.Testbed, *diag.Input) {
	t.Helper()
	tb, err := testbed.NewFigure1(seed)
	if err != nil {
		t.Fatal(err)
	}
	runs := 16
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: runs},
	}
	horizon := simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(runs)*30*simtime.Minute)
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, horizon)
	}
	mid := simtime.Time(10*simtime.Minute) + simtime.Time(simtime.Duration(runs/2)*30*simtime.Minute) - simtime.Time(5*simtime.Minute)
	err = faults.Inject(tb,
		&faults.SANMisconfiguration{
			At: mid, Until: horizon, Pool: testbed.PoolP1,
			NewVolume: "vol-Vp", Host: testbed.ServerApp1,
			ReadIOPS: 450, WriteIOPS: 120,
		},
		&faults.ExternalVolumeLoad{
			LoadName: "wl-v2-burst", Volume: testbed.VolV4,
			Window:   simtime.NewInterval(mid, horizon),
			ReadIOPS: 260, WriteIOPS: 120, DutyCycle: 0.35, Period: 10 * simtime.Minute,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	rs := tb.RunsFor("Q2")
	return tb, &diag.Input{
		Query: "Q2", Runs: rs, Satisfactory: diag.LabelAdaptive(rs, 1.6),
		Store: tb.Store, Cfg: tb.Cfg, Cat: tb.Cat, Opt: tb.Opt,
		Params: tb.Params, Stats: tb.Stats, Server: testbed.ServerDB,
		SymDB: symptoms.Builtin(),
	}
}

func TestSANOnlyFlagsBothVolumes(t *testing.T) {
	_, in := scenario1WithV2Burst(t, 21)
	rep, err := SANOnly(in)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, f := range rep.Findings {
		found[f.Subject] = true
	}
	// The SAN-only tool flags volumes in both pools — it cannot separate
	// the true cause from the bystander burst.
	if !found[string(testbed.VolV1)] && !found["vol-Vp"] {
		t.Fatalf("SAN-only should flag P1 volumes: %v", rep)
	}
	if !found[string(testbed.VolV4)] && !found[string(testbed.VolV2)] {
		t.Fatalf("SAN-only should also flag P2 volumes (its mistake): %v", rep)
	}
}

func TestDBOnlyEmitsGenericFalsePositives(t *testing.T) {
	_, in := scenario1WithV2Burst(t, 22)
	rep, err := DBOnly(in)
	if err != nil {
		t.Fatal(err)
	}
	var ops, generic int
	for _, f := range rep.Findings {
		if strings.HasPrefix(f.Subject, "operator") {
			ops++
		}
		if f.Subject == "buffer pool setting" || f.Subject == "execution plan choice" {
			generic++
		}
	}
	if ops == 0 {
		t.Fatalf("DB-only should pinpoint slow operators: %v", rep)
	}
	if generic != 2 {
		t.Fatalf("DB-only should emit its generic hypotheses: %v", rep)
	}
}

func TestDIADSBeatsSilosOnScenario1Variant(t *testing.T) {
	_, in := scenario1WithV2Burst(t, 23)
	res, err := diag.Diagnose(in)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := res.TopCause()
	if !ok {
		t.Fatal("no cause")
	}
	if top.Cause.Kind != symptoms.CauseSANMisconfig || top.Cause.Subject != string(testbed.VolV1) {
		t.Fatalf("DIADS should still pin V1's misconfiguration: %v\n%s", top.Cause, res.Render())
	}
	// V2-side causes stay below high confidence despite the burst.
	for _, c := range res.Causes {
		if (c.Subject == string(testbed.VolV2) || c.Subject == string(testbed.VolV4)) &&
			c.Category == symptoms.High {
			t.Errorf("V2-side cause should not reach high: %v", c)
		}
	}
}

func TestKDEBeatsGaussianWithFewSamples(t *testing.T) {
	// The paper: "KDE can produce accurate results with few tens of
	// samples, and is more robust to noise".
	rnd := simtime.NewRand(7, "trials")
	trials := MakeTrials(rnd, 200, 12, 3.0, 0.25, 0.08)
	kdeAcc := Accuracy(KDEScorer{}, trials, 0.8)
	gaussAcc := Accuracy(GaussianScorer{}, trials, 0.8)
	if kdeAcc < 0.85 {
		t.Fatalf("KDE accuracy too low with 12 samples: %.2f", kdeAcc)
	}
	if kdeAcc <= gaussAcc {
		t.Fatalf("KDE (%.2f) should beat the Gaussian baseline (%.2f) on noisy few-sample data",
			kdeAcc, gaussAcc)
	}
}

func TestScorersConvergeWithManySamples(t *testing.T) {
	rnd := simtime.NewRand(8, "trials-large")
	trials := MakeTrials(rnd, 200, 200, 3.0, 0.1, 0)
	for _, s := range []AnomalyScorer{KDEScorer{}, GaussianScorer{}, ThresholdCorrScorer{}} {
		if acc := Accuracy(s, trials, 0.8); acc < 0.9 {
			t.Errorf("%s should be accurate with clean plentiful data, got %.2f", s.Name(), acc)
		}
	}
}

func TestThresholdCorrUnstableWithFewSamples(t *testing.T) {
	rnd := simtime.NewRand(9, "trials-thr")
	few := MakeTrials(rnd, 200, 8, 2.0, 0.3, 0.1)
	kdeAcc := Accuracy(KDEScorer{}, few, 0.8)
	thrAcc := Accuracy(ThresholdCorrScorer{}, few, 0.8)
	if kdeAcc <= thrAcc {
		t.Fatalf("KDE (%.2f) should beat threshold correlation (%.2f) on few noisy samples",
			kdeAcc, thrAcc)
	}
}

func TestAccuracyEdgeCases(t *testing.T) {
	if Accuracy(KDEScorer{}, nil, 0.8) != 0 {
		t.Fatalf("no trials should yield 0")
	}
	if _, err := (GaussianScorer{}).Score(nil, []float64{1}); err == nil {
		t.Fatalf("empty sat should error")
	}
	if _, err := (ThresholdCorrScorer{}).Score([]float64{1}, nil); err == nil {
		t.Fatalf("empty unsat should error")
	}
}
