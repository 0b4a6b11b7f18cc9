package diag

import (
	"cmp"
	"slices"
	"sync"

	"diads/internal/apg"
	"diads/internal/exec"
	"diads/internal/kde"
	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// MetricScore is one (component, metric) anomaly score.
type MetricScore struct {
	Component string
	Metric    metrics.Metric
	Score     float64
}

// DAResult is Module DA's output.
type DAResult struct {
	// Scores holds every evaluated (component, metric) pair, sorted by
	// component then metric.
	Scores []MetricScore
	// CCS is the correlated component set: the pairs whose score exceeds
	// the threshold.
	CCS []MetricScore
}

// compareSeries orders scores by component, then metric. A (component,
// metric) pair is scored at most once, so the order is total and any
// sorting algorithm yields the same sequence.
func compareSeries(a, b MetricScore) int {
	if c := cmp.Compare(a.Component, b.Component); c != 0 {
		return c
	}
	return cmp.Compare(a.Metric, b.Metric)
}

// ScoreOf returns the anomaly score for a (component, metric) pair, by
// binary search over the sorted Scores.
func (r *DAResult) ScoreOf(component string, metric metrics.Metric) float64 {
	i, ok := slices.BinarySearchFunc(r.Scores, MetricScore{Component: component, Metric: metric}, compareSeries)
	if !ok {
		return 0
	}
	return r.Scores[i].Score
}

// Components returns the distinct components present in the CCS, sorted.
// The CCS is sorted by component, so equal components are adjacent.
func (r *DAResult) Components() []string {
	var out []string
	for i, s := range r.CCS {
		if i == 0 || s.Component != r.CCS[i-1].Component {
			out = append(out, s.Component)
		}
	}
	return out
}

// minSamplesForKDE is the minimum satisfactory sample count for a metric
// series to be scored; fewer samples make density estimates meaningless.
const minSamplesForKDE = 4

// DependencyAnalysis implements Module DA: it generates dependency paths
// for the operators in the COS and prunes them by correlating component
// performance metrics with the runs' behaviour. A component is in the
// correlated component set only if (i) it lies on the dependency path of
// a correlated operator and (ii) at least one of its performance metrics
// is significantly anomalous during the unsatisfactory runs (Section
// 4.1).
//
// Both inner and outer dependency paths contribute candidate components:
// the outer path is how a misconfigured volume sharing V1's disks enters
// the analysis.
func DependencyAnalysis(in *Input, g *apg.APG, co *COResult) (*DAResult, error) {
	res := &DAResult{}
	sc := daScratches.Get().(*daScratch)
	defer daScratches.Put(sc)
	sc.comps = appendCandidateComponents(sc.comps[:0], g, co)
	sat, unsat := in.windows()
	threshold := in.threshold()

	n := 0
	for _, comp := range sc.comps {
		sc.ms = in.Store.AppendMetricsFor(sc.ms[:0], string(comp))
		n += len(sc.ms)
	}
	if n > 0 {
		res.Scores = make([]MetricScore, 0, n) // at most one score per series
	}
	for _, comp := range sc.comps {
		c := string(comp)
		sc.ms = in.Store.AppendMetricsFor(sc.ms[:0], c)
		for _, m := range sc.ms {
			sc.satVals = in.Store.WindowMeans(c, m, sat, sc.satVals[:0])
			sc.unsatVals = in.Store.WindowMeans(c, m, unsat, sc.unsatVals[:0])
			if len(sc.satVals) < minSamplesForKDE || len(sc.unsatVals) == 0 {
				continue
			}
			score, err := kde.AnomalyScore(sc.satVals, sc.unsatVals)
			if err != nil {
				continue
			}
			res.Scores = append(res.Scores, MetricScore{Component: c, Metric: m, Score: score})
		}
	}
	slices.SortFunc(res.Scores, compareSeries)
	// The CCS is the sorted scores above the threshold, exactly sized.
	n = 0
	for _, s := range res.Scores {
		if s.Score > threshold {
			n++
		}
	}
	if n > 0 {
		res.CCS = make([]MetricScore, 0, n)
		for _, s := range res.Scores {
			if s.Score > threshold {
				res.CCS = append(res.CCS, s)
			}
		}
	}
	return res, nil
}

// daScratch is Module DA's working memory, recycled across diagnoses:
// the candidate components, one component's metrics, and one series'
// window means. No DAResult keeps any of it; kde copies what it keeps.
type daScratch struct {
	comps              []topology.ID
	ms                 []metrics.Metric
	satVals, unsatVals []float64
}

var daScratches = sync.Pool{New: func() any { return new(daScratch) }}

// appendCandidateComponents appends to dst, sorted and without
// duplicates, the components on the dependency paths of the correlated
// operators: the inner paths, the outer paths (volumes sharing disks),
// and — because outer-path volumes matter precisely when disks are
// shared — every volume of the pools those paths traverse. The paths
// repeat components, which the sort brings together; dst must be empty,
// as the sort takes in all of it.
func appendCandidateComponents(dst []topology.ID, g *apg.APG, co *COResult) []topology.ID {
	for _, opID := range co.COS {
		dp := g.DependencyPath(opID)
		dst = append(dst, dp.Inner...)
		dst = append(dst, dp.Outer...)
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// ProbeMetricScore computes the anomaly score for one (component,
// metric) pair directly from the monitoring store, independent of Module
// DA's dependency-path pruning. The Table 2 reproduction uses it to
// report scores for volumes DA legitimately pruned away.
func ProbeMetricScore(in *Input, component string, metric metrics.Metric) (float64, error) {
	sat, unsat := in.windows()
	satVals := in.Store.WindowMeans(component, metric, sat, nil)
	unsatVals := in.Store.WindowMeans(component, metric, unsat, nil)
	if len(satVals) < minSamplesForKDE || len(unsatVals) == 0 {
		return 0, kde.ErrNoSamples
	}
	return kde.AnomalyScore(satVals, unsatVals)
}

// ReadWindows returns each run's evidence window (metrics.ReadWindow —
// the run's span padded by the monitoring interval, so coarse series
// contribute their nearest samples), in run order. Store.WindowMeans
// over it yields one observation per run, skipping runs whose windows
// hold no samples.
func ReadWindows(runs []*exec.RunRecord) []simtime.Interval {
	return appendReadWindows(make([]simtime.Interval, 0, len(runs)), runs)
}

// appendReadWindows appends ReadWindows(runs) to dst.
func appendReadWindows(dst []simtime.Interval, runs []*exec.RunRecord) []simtime.Interval {
	for _, r := range runs {
		dst = append(dst, metrics.ReadWindow(simtime.NewInterval(r.Start, r.Stop)))
	}
	return dst
}
