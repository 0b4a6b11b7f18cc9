package experiments

import (
	"fmt"
	"sort"
	"strings"

	"diads/internal/baseline"
	"diads/internal/diag"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/testbed"
)

// KDERobustnessResult reproduces the Section 5 observation that KDE "can
// produce accurate results with few tens of samples, and is more robust
// to noise" than model-based correlation analysis.
type KDERobustnessResult struct {
	SampleCounts []int
	// Accuracy[scorer][i] is the detection accuracy at SampleCounts[i].
	Accuracy map[string][]float64
	// NoiseLevels and NoiseAccuracy sweep monitoring noise at 20 samples.
	NoiseLevels   []float64
	NoiseAccuracy map[string][]float64
}

// KDERobustness sweeps sample counts and noise levels over synthetic
// detection trials for KDE and the correlation baselines.
func KDERobustness(seed int64) *KDERobustnessResult {
	scorers := []baseline.AnomalyScorer{
		baseline.KDEScorer{},
		baseline.GaussianScorer{},
		baseline.ThresholdCorrScorer{},
	}
	res := &KDERobustnessResult{
		SampleCounts:  []int{8, 12, 20, 30, 50, 100},
		Accuracy:      make(map[string][]float64),
		NoiseLevels:   []float64{0.05, 0.15, 0.25, 0.35, 0.5},
		NoiseAccuracy: make(map[string][]float64),
	}
	for i, n := range res.SampleCounts {
		rnd := simtime.NewRand(seed, fmt.Sprintf("robust-samples-%d", i))
		trials := baseline.MakeTrials(rnd, 300, n, 3.0, 0.25, 0.08)
		for _, s := range scorers {
			res.Accuracy[s.Name()] = append(res.Accuracy[s.Name()],
				baseline.Accuracy(s, trials, 0.8))
		}
	}
	for i, sigma := range res.NoiseLevels {
		rnd := simtime.NewRand(seed, fmt.Sprintf("robust-noise-%d", i))
		trials := baseline.MakeTrials(rnd, 300, 20, 3.0, sigma, 0.08)
		for _, s := range scorers {
			res.NoiseAccuracy[s.Name()] = append(res.NoiseAccuracy[s.Name()],
				baseline.Accuracy(s, trials, 0.8))
		}
	}
	return res
}

// Render formats the two sweeps as series.
func (r *KDERobustnessResult) Render() string {
	var b strings.Builder
	b.WriteString("KDE robustness (Section 5 observation): detection accuracy\n\n")
	b.WriteString("By satisfactory-sample count (noise sigma 0.25, 8% outliers):\n")
	fmt.Fprintf(&b, "%-24s", "samples")
	for _, n := range r.SampleCounts {
		fmt.Fprintf(&b, "%8d", n)
	}
	b.WriteString("\n")
	for _, s := range sortedSeries(r.Accuracy) {
		fmt.Fprintf(&b, "%-24s", s.name)
		for _, a := range s.accs {
			fmt.Fprintf(&b, "%8.3f", a)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nBy noise level (20 satisfactory samples):\n")
	fmt.Fprintf(&b, "%-24s", "noise sigma")
	for _, s := range r.NoiseLevels {
		fmt.Fprintf(&b, "%8.2f", s)
	}
	b.WriteString("\n")
	for _, s := range sortedSeries(r.NoiseAccuracy) {
		fmt.Fprintf(&b, "%-24s", s.name)
		for _, a := range s.accs {
			fmt.Fprintf(&b, "%8.3f", a)
		}
		b.WriteString("\n")
	}
	return b.String()
}

type namedSeries struct {
	name string
	accs []float64
}

// sortedSeries yields map entries in deterministic name order: the
// known scorers first, in presentation order, then any others sorted by
// name. (Copying into a second map does not order iteration.)
func sortedSeries(m map[string][]float64) []namedSeries {
	ordered := make([]namedSeries, 0, len(m))
	seen := make(map[string]bool, len(m))
	for _, name := range []string{"KDE", "Gaussian-model", "Threshold-correlation"} {
		if v, ok := m[name]; ok {
			ordered = append(ordered, namedSeries{name, v})
			seen[name] = true
		}
	}
	rest := make([]string, 0, len(m))
	for name := range m {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		ordered = append(ordered, namedSeries{name, m[name]})
	}
	return ordered
}

// BaselinesResult reproduces the Section 5 narrative comparing DIADS with
// SAN-only and database-only tools on scenario 1 plus the bursty V2 load.
type BaselinesResult struct {
	DIADSCause   string
	DIADSCorrect bool
	SANOnly      *baseline.Report
	DBOnly       *baseline.Report
	// SANOnlyFlagsV2Side reports the SAN-only tool's characteristic
	// mistake: implicating the V2-side pool.
	SANOnlyFlagsV2Side bool
	// DBOnlyGenerics counts the DB-only tool's generic false positives.
	DBOnlyGenerics int
}

// Baselines runs all three tools on the scenario-1 variant.
func Baselines(seed int64) (*BaselinesResult, error) {
	sc, err := buildScenario1WithV2Burst(seed)
	if err != nil {
		return nil, err
	}
	res, err := diag.Diagnose(sc.Input)
	if err != nil {
		return nil, err
	}
	out := &BaselinesResult{}
	if top, ok := res.TopCause(); ok {
		out.DIADSCause = top.Cause.String()
	}
	out.DIADSCorrect = sc.Correct(res)
	if out.SANOnly, err = baseline.SANOnly(sc.Input); err != nil {
		return nil, err
	}
	if out.DBOnly, err = baseline.DBOnly(sc.Input); err != nil {
		return nil, err
	}
	for _, f := range out.SANOnly.Findings {
		if f.Subject == string(testbed.VolV2) || f.Subject == string(testbed.VolV4) {
			out.SANOnlyFlagsV2Side = true
		}
	}
	for _, f := range out.DBOnly.Findings {
		if f.Subject == "buffer pool setting" || f.Subject == "execution plan choice" {
			out.DBOnlyGenerics++
		}
	}
	return out, nil
}

// Render formats the comparison.
func (r *BaselinesResult) Render() string {
	var b strings.Builder
	b.WriteString("Baseline comparison on scenario 1 + bursty V2 load (Section 5 narrative)\n\n")
	fmt.Fprintf(&b, "DIADS: %s (correct=%v)\n\n", r.DIADSCause, r.DIADSCorrect)
	b.WriteString(r.SANOnly.String())
	fmt.Fprintf(&b, "  -> flags V2-side volumes: %v (its characteristic mistake)\n\n", r.SANOnlyFlagsV2Side)
	b.WriteString(r.DBOnly.String())
	fmt.Fprintf(&b, "  -> generic database false positives: %d\n", r.DBOnlyGenerics)
	return b.String()
}

// IncompleteSDResult reproduces the Section 5 observation that DIADS
// "produces good results even when the symptoms database is incomplete".
type IncompleteSDResult struct {
	// FullCause is the diagnosis with the complete database.
	FullCause string
	// WithoutEntryTop is the top cause after removing the matching entry.
	WithoutEntryTop string
	// NarrowedOperators and NarrowedComponents show what DIADS still
	// pinpoints with no database at all.
	NarrowedOperators  []int
	NarrowedComponents []string
}

// IncompleteSymptomsDB diagnoses scenario 1 with the full database, with
// the misconfiguration entry removed, and with no database.
func IncompleteSymptomsDB(seed int64) (*IncompleteSDResult, error) {
	out := &IncompleteSDResult{}

	sc, err := Build(S1SANMisconfig, seed)
	if err != nil {
		return nil, err
	}
	res, err := diag.Diagnose(sc.Input)
	if err != nil {
		return nil, err
	}
	if top, ok := res.TopCause(); ok {
		out.FullCause = top.Cause.String()
	}

	sc2, err := Build(S1SANMisconfig, seed)
	if err != nil {
		return nil, err
	}
	db := symptoms.Builtin()
	db.Remove(symptoms.CauseSANMisconfig)
	sc2.Input.SymDB = db
	res2, err := diag.Diagnose(sc2.Input)
	if err != nil {
		return nil, err
	}
	if top, ok := res2.TopCause(); ok {
		out.WithoutEntryTop = top.Cause.String()
	}

	sc3, err := Build(S1SANMisconfig, seed)
	if err != nil {
		return nil, err
	}
	sc3.Input.SymDB = nil
	res3, err := diag.Diagnose(sc3.Input)
	if err != nil {
		return nil, err
	}
	out.NarrowedOperators = res3.CO.COS
	out.NarrowedComponents = res3.DA.Components()
	return out, nil
}

// Render formats the ablation.
func (r *IncompleteSDResult) Render() string {
	var b strings.Builder
	b.WriteString("Incomplete symptoms database (Section 5 observation)\n")
	fmt.Fprintf(&b, "full database:          %s\n", r.FullCause)
	fmt.Fprintf(&b, "entry removed:          %s\n", r.WithoutEntryTop)
	fmt.Fprintf(&b, "no database, narrowed to operators %v\n", r.NarrowedOperators)
	fmt.Fprintf(&b, "                    and components %v\n", r.NarrowedComponents)
	return b.String()
}
