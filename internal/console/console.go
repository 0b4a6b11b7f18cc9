// Package console renders DIADS's user interface as deterministic text
// screens: the query-selection table (Figure 3), the APG visualization
// with per-component time-series (Figure 6), and the interactive workflow
// screen (Figure 7). The paper's prototype drew these as a Java GUI; the
// content and columns are preserved.
package console

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"diads/internal/apg"
	"diads/internal/diag"
	"diads/internal/exec"
	"diads/internal/fleet"
	"diads/internal/metrics"
	"diads/internal/pipeline"
	"diads/internal/plan"
	"diads/internal/simtime"
)

// QueryScreen renders the query-selection screen (Figure 3): one row per
// query execution with its plan, start/end times, duration, and the
// administrator's unsatisfactory mark.
func QueryScreen(runs []*exec.RunRecord, satisfactory map[string]bool) string {
	ordered := make([]*exec.RunRecord, len(runs))
	copy(ordered, runs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })

	var b strings.Builder
	b.WriteString("DIADS — Query Selection\n")
	fmt.Fprintf(&b, "%-14s %-6s %-10s %-12s %-12s %-10s %-6s\n",
		"Run", "Query", "Plan", "Start time", "End time", "Duration", "Unsat")
	b.WriteString(strings.Repeat("-", 76) + "\n")
	for _, r := range ordered {
		mark := "[ ]"
		if sat, ok := satisfactory[r.RunID]; ok && !sat {
			mark = "[x]"
		}
		fmt.Fprintf(&b, "%-14s %-6s %-10s %-12s %-12s %-10s %-6s\n",
			r.RunID, r.Query, r.PlanSig[:8], r.Start.Clock(), r.Stop.Clock(),
			r.Duration().String(), mark)
	}
	b.WriteString("\n[APG] view annotated plan graph    [Workflow] invoke diagnosis workflow\n")
	return b.String()
}

// APGScreen renders the APG visualization screen (Figure 6): the APG
// structure as a tree on the left, and the time-series performance
// metrics of one selected component on the right, with each measurement's
// unsatisfactory categorization.
func APGScreen(g *apg.APG, store *metrics.Store, run *exec.RunRecord, component string, unsatWindows []simtime.Interval) string {
	var b strings.Builder
	fmt.Fprintf(&b, "DIADS — APG Visualization (run %s)\n\n", run.RunID)
	b.WriteString(g.Render())

	fmt.Fprintf(&b, "\nPerformance metrics for component %q:\n", component)
	ms := store.MetricsFor(component)
	if len(ms) == 0 {
		b.WriteString("  (no metrics recorded)\n")
		return b.String()
	}
	// Double evidence-window padding: the screen shows the surrounding
	// context, one monitoring interval beyond what the diagnosis reads.
	win := metrics.ReadWindow(metrics.ReadWindow(simtime.NewInterval(run.Start, run.Stop)))
	fmt.Fprintf(&b, "%-12s %-32s %12s  %-6s\n", "Time", "Metric", "Value", "Unsat")
	b.WriteString(strings.Repeat("-", 68) + "\n")
	for _, m := range ms {
		for _, s := range store.Window(component, m, win) {
			mark := "[ ]"
			for _, uw := range unsatWindows {
				if uw.Contains(s.T) {
					mark = "[x]"
				}
			}
			fmt.Fprintf(&b, "%-12s %-32s %12.3f  %s\n", s.T.Clock(), m, s.V, mark)
		}
	}
	return b.String()
}

// WorkflowScreen renders the interactive workflow screen (Figure 7): the
// module buttons across the top — executed modules enabled, pending ones
// disabled — and the result panel of the last executed module.
func WorkflowScreen(w *diag.Workflow) string {
	var b strings.Builder
	b.WriteString("DIADS — Diagnosis Workflow\n\n")

	type module struct {
		name string
		done bool
	}
	res := w.Res
	modules := []module{
		{"PD", res.PD != nil},
		{"CO", res.CO != nil},
		{"DA", res.DA != nil},
		{"CR", res.CR != nil},
		{"SD", res.Facts != nil},
		{"IA", res.IA != nil},
	}
	ready := true
	for _, m := range modules {
		switch {
		case m.done:
			fmt.Fprintf(&b, "[%s*] ", m.name)
		case ready:
			fmt.Fprintf(&b, "[%s ] ", m.name)
			ready = false
		default:
			fmt.Fprintf(&b, "(%s ) ", m.name)
		}
		if m.done {
			ready = true
		}
	}
	b.WriteString("   (* executed, [] next, () disabled)\n\n")
	b.WriteString("Result panel:\n")
	switch {
	case res.IA != nil:
		b.WriteString("Module IA — root causes and impact:\n")
		for _, item := range res.IA.Items {
			fmt.Fprintf(&b, "  %-55s impact=%5.1f%%\n", item.Cause.String(), item.Score)
		}
	case res.Facts != nil:
		b.WriteString("Module SD — cause confidence:\n")
		for _, c := range res.Causes {
			fmt.Fprintf(&b, "  %s\n", c)
		}
	case res.CR != nil:
		fmt.Fprintf(&b, "Module CR — record-count anomalies on operators %v\n", res.CR.CRS)
	case res.DA != nil:
		fmt.Fprintf(&b, "Module DA — %d correlated component metrics\n", len(res.DA.CCS))
		for _, s := range res.DA.CCS {
			fmt.Fprintf(&b, "  %-14s %-30s score=%.3f\n", s.Component, s.Metric, s.Score)
		}
	case res.CO != nil:
		b.WriteString("Module CO — correlated operator set:\n")
		for _, id := range res.CO.COS {
			n, _ := res.APG.Plan.Node(id)
			label := ""
			if n != nil {
				label = n.Label()
			}
			fmt.Fprintf(&b, "  O%-3d %-40s score=%.3f\n", id, label, res.CO.ScoreOf(id))
		}
	case res.PD != nil:
		if res.PD.Changed {
			b.WriteString("Module PD — plan changed; see plan-change analysis\n")
		} else {
			b.WriteString("Module PD — same plan in both regimes\n")
		}
	default:
		b.WriteString("(no module executed yet)\n")
	}
	return b.String()
}

// TimingPanel renders the workflow-timing panel: one row per module of
// the diagnosis pipeline with its status, measured wall time, and cache
// outcome. The online service records a trace per incident; the panel is
// the screen an operator reads to see where a diagnosis spent its time
// and what the caches absorbed. (Wall times are measured, so this panel
// — unlike the diagnosis report — is not byte-deterministic per seed.)
func TimingPanel(t *pipeline.Trace) string {
	var b strings.Builder
	b.WriteString("DIADS — Workflow Timing\n")
	if t == nil {
		b.WriteString("  (no trace recorded)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "pipeline %s, total %s\n\n", t.Pipeline, t.Total.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-8s %-8s %12s  %-5s %s\n", "module", "status", "wall", "cache", "note")
	b.WriteString(strings.Repeat("-", 60) + "\n")
	for _, m := range t.Modules {
		wall := "-"
		if m.Status == pipeline.StatusRan || m.Status == pipeline.StatusCacheHit ||
			m.Status == pipeline.StatusFailed {
			wall = m.Wall.Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "%-8s %-8s %12s  %-5s %s\n", m.Module, m.Status, wall, m.Cache, m.Note)
	}
	return b.String()
}

// FleetPanel renders the fleet operations screen: the correlated
// incident view (cross-instance groups with per-instance breakdown),
// the instance roster, and the symptom-learning summary. Unlike the
// timing panel it is byte-deterministic per seed — the report carries
// no wall-clock measurements.
func FleetPanel(rep *fleet.Report) string {
	var b strings.Builder
	b.WriteString("DIADS — Fleet\n\n")
	if rep == nil {
		b.WriteString("  (no fleet report)\n")
		return b.String()
	}
	b.WriteString(rep.Render())
	if g := rep.SharedGroup(); g != nil {
		fmt.Fprintf(&b, "\nacting on: %s(%s) — one shared-infrastructure incident across %d instances\n",
			g.Kind, g.Subject, len(g.Parts))
	}
	return b.String()
}

// CandidatesPanel renders the mined-candidate review screen: the
// evidence the learning loop has accumulated, the entries it installed,
// the candidates still in flight (with their admin-DSL rendering, ready
// for an operator to ack or paste into the database), and the rejected
// ones with the validation reasons. Byte-deterministic per seed — it
// renders only lifecycle state, never wall-clock or cache counters.
func CandidatesPanel(st fleet.LearnStats) string {
	var b strings.Builder
	b.WriteString("DIADS — Mined Candidates\n\n")
	fmt.Fprintf(&b, "evidence: confirmed=%d held-out=%d healthy-corpus=%d\n",
		st.Confirmed, st.HeldOut, st.Healthy)
	if len(st.Installed)+len(st.Pending)+len(st.Rejected) == 0 {
		b.WriteString("  (no candidates proposed)\n")
		return b.String()
	}
	for _, e := range st.Installed {
		fmt.Fprintf(&b, "\ninstalled %s (mined from %s)\n", e.Kind, strings.Join(e.Sources, " "))
		fmt.Fprintf(&b, "  healthy replay %d bases / %d false positives, hold-out %d/%d high\n",
			e.Validation.Healthy, e.Validation.FalsePositives,
			e.Validation.HoldoutHigh, e.Validation.Holdout)
	}
	for _, p := range st.Pending {
		fmt.Fprintf(&b, "\npending %s — %s\n", p.Kind, p.State)
		for _, line := range strings.Split(strings.TrimRight(p.Rendered, "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	for _, r := range st.Rejected {
		fmt.Fprintf(&b, "\nrejected %s — %s\n", r.Kind, r.Reason)
		for _, c := range r.Validation.Conditions {
			if c.HealthyHits > 0 || c.HoldoutMisses > 0 {
				fmt.Fprintf(&b, "  %-50s healthy-hits=%d holdout-misses=%d\n",
					c.Expr, c.HealthyHits, c.HoldoutMisses)
			}
		}
	}
	return b.String()
}

// PlanScreen renders a plan as the pop-up the query screen shows when the
// plan cell is clicked.
func PlanScreen(p *plan.Plan) string {
	return fmt.Sprintf("Plan %s (signature %s)\n%s", p.Query, p.Signature(), p.Render())
}
