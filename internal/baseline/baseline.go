// Package baseline implements the silo diagnosis tools the paper
// contrasts DIADS against in Section 5: a SAN-only tool that sees volume
// metrics but no query structure, and a database-only tool that sees
// operator slowdowns but no SAN topology. It also provides the
// correlation-based analyzer (a stand-in for heavier models such as
// Bayesian networks) used to reproduce the paper's observation that KDE
// is more accurate with few samples and more robust to noise.
package baseline

import (
	"fmt"
	"sort"
	"strings"

	"diads/internal/diag"
	"diads/internal/kde"
	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// Finding is one hypothesis produced by a silo tool.
type Finding struct {
	Subject string
	Detail  string
	Score   float64
}

// Report is a silo tool's output, ordered by score.
type Report struct {
	Tool     string
	Findings []Finding
}

// String implements fmt.Stringer.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s findings:\n", r.Tool)
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %-28s score=%.2f  %s\n", f.Subject, f.Score, f.Detail)
	}
	return b.String()
}

// SANOnly diagnoses using only SAN monitoring data: it scores every
// volume's I/O metrics across the satisfactory/unsatisfactory windows and
// reports the loaded volumes — without operator-level evidence it cannot
// tell which volume actually hurt the query, and it weights busier
// volumes higher ("the tool may give more importance to V2 because most
// of the data is on V2").
func SANOnly(in *diag.Input) (*Report, error) {
	rep := &Report{Tool: "SAN-only"}
	satRuns, unsatRuns := in.LabeledRuns()
	sat, unsat := diag.ReadWindows(satRuns), diag.ReadWindows(unsatRuns)
	for _, vol := range in.Cfg.All(topology.KindVolume) {
		c := string(vol)
		var best float64
		var bestMetric metrics.Metric
		for _, m := range []metrics.Metric{metrics.VolReadIO, metrics.VolWriteIO,
			metrics.VolReadTime, metrics.VolWriteTime, metrics.StTotalIOs} {
			score, ok := windowScore(in.Store, c, m, sat, unsat)
			if ok && score > best {
				best = score
				bestMetric = m
			}
		}
		if best > in.Threshold0() {
			// Busier volumes are weighted up: the tool ranks by anomaly
			// times current load share, its characteristic mistake.
			load := meanOver(in.Store, c, metrics.StTotalIOs, unsat)
			rep.Findings = append(rep.Findings, Finding{
				Subject: c,
				Detail:  fmt.Sprintf("anomalous %s; current load %.0f IO/s", bestMetric, load),
				Score:   best * (1 + load/500),
			})
		}
	}
	sort.Slice(rep.Findings, func(i, j int) bool { return rep.Findings[i].Score > rep.Findings[j].Score })
	return rep, nil
}

// DBOnly diagnoses using only database monitoring: operator slowdowns and
// database counters. It pinpoints slow operators but, blind to the SAN,
// falls back on generic database hypotheses — "several false positives
// like a suboptimal buffer pool setting or a suboptimal choice of
// execution plan".
func DBOnly(in *diag.Input) (*Report, error) {
	rep := &Report{Tool: "DB-only"}
	sat, unsat := in.LabeledRuns()
	if len(sat) == 0 || len(unsat) == 0 {
		return nil, fmt.Errorf("baseline: need labeled runs")
	}
	p := unsat[0].Plan
	for _, n := range p.Nodes() {
		if n.ID == p.Root.ID {
			continue
		}
		var satT, unsatT []float64
		for _, r := range sat {
			if op := r.Op(n.ID); op != nil {
				satT = append(satT, float64(op.Recorded))
			}
		}
		for _, r := range unsat {
			if op := r.Op(n.ID); op != nil {
				unsatT = append(unsatT, float64(op.Recorded))
			}
		}
		score, err := kde.AnomalyScore(satT, unsatT)
		if err != nil || score <= in.Threshold0() {
			continue
		}
		rep.Findings = append(rep.Findings, Finding{
			Subject: fmt.Sprintf("operator O%d (%s)", n.ID, n.Type),
			Detail:  "running time anomalous",
			Score:   score,
		})
	}
	// Generic database-level hypotheses: without SAN visibility every
	// slow-I/O signature looks like a cache or plan problem.
	if len(rep.Findings) > 0 {
		rep.Findings = append(rep.Findings,
			Finding{Subject: "buffer pool setting", Detail: "suboptimal shared_buffers suspected", Score: 0.85},
			Finding{Subject: "execution plan choice", Detail: "suboptimal plan suspected", Score: 0.82},
		)
	}
	sort.Slice(rep.Findings, func(i, j int) bool { return rep.Findings[i].Score > rep.Findings[j].Score })
	return rep, nil
}

// windowScore computes a KDE anomaly score from per-window means.
func windowScore(store *metrics.Store, component string, m metrics.Metric, sat, unsat []simtime.Interval) (float64, bool) {
	satVals := store.WindowMeans(component, m, sat, nil)
	unsatVals := store.WindowMeans(component, m, unsat, nil)
	if len(satVals) < 4 || len(unsatVals) == 0 {
		return 0, false
	}
	score, err := kde.AnomalyScore(satVals, unsatVals)
	if err != nil {
		return 0, false
	}
	return score, true
}

// meanOver averages a metric over a set of windows.
func meanOver(store *metrics.Store, component string, m metrics.Metric, windows []simtime.Interval) float64 {
	means := store.WindowMeans(component, m, windows, nil)
	if len(means) == 0 {
		return 0
	}
	var sum float64
	for _, mean := range means {
		sum += mean
	}
	return sum / float64(len(means))
}
