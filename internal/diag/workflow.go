package diag

import (
	"context"
	"fmt"
	"strings"

	"diads/internal/apg"
	"diads/internal/pipeline"
	"diads/internal/symptoms"
)

// Result is the complete output of one diagnosis.
type Result struct {
	Query string
	PD    *PDResult
	APG   *apg.APG
	CO    *COResult
	DA    *DAResult
	CR    *CRResult
	Facts *symptoms.FactBase
	// Causes are the symptoms-database hypotheses, sorted by confidence.
	Causes []symptoms.CauseInstance
	IA     *IAResult
	// Trace is the engine's per-module execution record: wall time,
	// cache hit/miss, and skip/short-circuit decisions. It never feeds
	// Render — reports stay byte-deterministic per seed.
	Trace *pipeline.Trace
}

// TopCause returns the highest-confidence cause, breaking ties by impact
// score, or false if no cause reached medium confidence.
func (r *Result) TopCause() (ImpactItem, bool) {
	if r.IA != nil && len(r.IA.Items) > 0 {
		return r.IA.Items[0], true
	}
	return ImpactItem{}, false
}

// RootCause returns the cause the diagnosis names — the one the registry
// files an incident under and a fault's answer is checked against — or
// false if it names none. A plan change names plan-regression on the
// first change PD says explains it ("plan" if none), at full confidence
// and impact; otherwise it is IA's first item, or SD's first cause above
// low confidence. Mined entries (symptoms.MinedSuffix) never name it:
// they corroborate, pending expert adoption, and their subject is the
// query, not a component.
func (r *Result) RootCause() (ImpactItem, bool) {
	if r == nil || r.PD == nil {
		return ImpactItem{}, false
	}
	if r.PD.Changed {
		subj := "plan"
		for _, c := range r.PD.Causes {
			if c.Explains {
				subj = string(c.Event.Subject)
				break
			}
		}
		return ImpactItem{Score: 100, Cause: symptoms.CauseInstance{
			Kind: symptoms.CausePlanRegression, Subject: subj,
			Confidence: 100, Category: symptoms.High,
		}}, true
	}
	if r.IA != nil {
		for _, item := range r.IA.Items {
			if !symptoms.IsMined(item.Cause.Kind) {
				return item, true
			}
		}
	}
	for _, c := range r.Causes {
		if c.Category != symptoms.Low && !symptoms.IsMined(c.Kind) {
			return ImpactItem{Cause: c}, true
		}
	}
	return ImpactItem{}, false
}

// Workflow runs the diagnosis modules, either batch (Run) or one module
// at a time — the paper's interactive mode, where the administrator can
// inspect and edit each module's result (e.g. prune the COS) before the
// next module consumes it. Both modes write each module's output
// straight into Res: batch runs walk the modules in the workflow's order
// on the caller's goroutine, interactive steps check each module's
// declared dependencies against what Res already holds.
type Workflow struct {
	In  *Input
	Res *Result

	st    state // st.Result is Res
	steps []pipeline.ModuleTrace
}

// NewWorkflow validates the input and prepares a workflow.
func NewWorkflow(in *Input) (*Workflow, error) {
	seeded, err := Seed(in)
	if err != nil {
		return nil, err
	}
	res := &Result{Query: in.Query}
	return &Workflow{In: in, Res: res, st: state{in: seeded, Result: res}}, nil
}

// Run executes the full batch workflow of Figure 2: PD first; if the plan
// changed, plan-change analysis is the diagnosis. Otherwise CO runs
// against the common plan, DA and CR analyze its operators, SD maps
// symptoms to causes, and IA scores their impact. The batch run starts
// from a freshly seeded input and re-runs earlier interactive steps.
func (w *Workflow) Run() (*Result, error) {
	seeded, err := Seed(w.In)
	if err != nil {
		return nil, err
	}
	w.st.in = seeded
	return w.st.run(context.Background(), nil)
}

// run executes every module on s in the workflow's order and stamps the
// run's trace onto the Result. The engine starts no further module once
// ctx is canceled.
func (s *state) run(ctx context.Context, onStart func(module string)) (*Result, error) {
	trace, err := diadsPipeline.Run(ctx, s, onStart)
	if err != nil {
		return nil, err
	}
	trace.TraceID = s.in.TraceID
	s.Trace = trace
	return s.Result, nil
}

// step executes one module into the workflow's Result and records its
// trace. The module's declared dependencies enforce ordering — running
// DA before CO fails with the missing dependency.
func (w *Workflow) step(name string) error {
	mt, err := diadsPipeline.RunModule(context.Background(), name, &w.st, w.st.has)
	// One entry per module: a retried step (e.g. after an out-of-order
	// attempt failed on its dependencies) replaces its earlier record.
	replaced := false
	for i := range w.steps {
		if w.steps[i].Module == name {
			w.steps[i], replaced = mt, true
			break
		}
	}
	if !replaced {
		w.steps = append(w.steps, mt)
	}
	return err
}

// Trace returns the interactive steps executed so far as a trace (batch
// runs record theirs on Result.Trace). Total is the accumulated wall
// time of the steps.
func (w *Workflow) Trace() *pipeline.Trace {
	t := &pipeline.Trace{
		Pipeline: PipelineDIADS,
		Modules:  append([]pipeline.ModuleTrace(nil), w.steps...),
	}
	for _, mt := range t.Modules {
		t.Total += mt.Wall
	}
	return t
}

// RunPD executes Module PD and, when the plan is unchanged, builds the
// APG of the common plan for the downstream modules.
func (w *Workflow) RunPD() error {
	if err := w.step(KeyPD); err != nil {
		return err
	}
	if w.Res.PD.Changed {
		// The plan-change short circuit: no common plan, no APG, and
		// every drill-down module stays disabled.
		return nil
	}
	return w.step(KeyAPG)
}

// RunCO executes Module CO. RunPD must have run and found no plan change.
func (w *Workflow) RunCO() error { return w.step(KeyCO) }

// OverrideCOS replaces the correlated operator set — the interactive
// mode's edit hook between CO and DA.
func (w *Workflow) OverrideCOS(cos []int) error {
	if w.Res.CO == nil {
		return fmt.Errorf("diag: run Module CO before overriding its result")
	}
	w.Res.CO.COS = append([]int(nil), cos...)
	return nil
}

// RunDA executes Module DA. RunCO must have run.
func (w *Workflow) RunDA() error { return w.step(KeyDA) }

// RunCR executes Module CR. RunCO must have run.
func (w *Workflow) RunCR() error { return w.step(KeyCR) }

// RunSD builds the fact base from the module outputs and evaluates the
// symptoms database.
func (w *Workflow) RunSD() error {
	if err := w.step(KeyFacts); err != nil {
		return err
	}
	return w.step(KeySD)
}

// RunIA executes Module IA over the medium- and high-confidence causes.
func (w *Workflow) RunIA() error { return w.step(KeyIA) }

// Diagnose is the one-call batch entry point.
func Diagnose(in *Input) (*Result, error) {
	return DiagnoseContext(context.Background(), in)
}

// DiagnoseContext is the re-entrant entry point the online service's
// worker goroutines use: one call per job, cancelable at module
// granularity, with any caches configured on the Input shared safely
// across calls. Diagnoses share no mutable state — each runs on its own
// seeded copy of the Input and writes its own Result — so one Input may
// serve many goroutines.
func DiagnoseContext(ctx context.Context, in *Input) (*Result, error) {
	return diagnose(ctx, in, nil)
}

// diagnose is DiagnoseContext with a hook observing each module as its
// turn comes (tests use it to cancel deterministically mid-pipeline).
func diagnose(ctx context.Context, in *Input, onStart func(module string)) (*Result, error) {
	w, err := NewWorkflow(in)
	if err != nil {
		return nil, err
	}
	return w.st.run(ctx, onStart)
}

// ToIncident converts a diagnosis into a confirmed incident for the
// self-evolving symptoms-database loop (Section 7): once the
// administrator confirms the root cause, the incident's facts feed the
// miner, which proposes new codebook entries for expert review.
func (r *Result) ToIncident(confirmedKind, subject string) (symptoms.Incident, error) {
	if r.Facts == nil {
		return symptoms.Incident{}, fmt.Errorf("diag: diagnosis has no facts (plan-change short circuit?)")
	}
	return symptoms.Incident{
		Facts:     r.Facts,
		CauseKind: confirmedKind,
		Subject:   subject,
	}, nil
}

// Render formats the diagnosis as the report an administrator reads.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DIADS diagnosis for query %s\n", r.Query)
	fmt.Fprintf(&b, "%s\n", strings.Repeat("=", 40))
	if r.PD == nil {
		return b.String()
	}
	if r.PD.Changed {
		b.WriteString("Module PD: plan CHANGED between satisfactory and unsatisfactory runs\n")
		for _, d := range r.PD.Differences {
			fmt.Fprintf(&b, "  - %s\n", d)
		}
		b.WriteString("Plan-change analysis:\n")
		if len(r.PD.Causes) == 0 {
			b.WriteString("  no candidate configuration/schema changes found in the log\n")
		}
		for _, c := range r.PD.Causes {
			marker := " "
			if c.Explains {
				marker = "*"
			}
			fmt.Fprintf(&b, "  %s %s %s: %s\n", marker, c.Event.T.Clock(), c.Event.Kind, c.Detail)
		}
		return b.String()
	}
	b.WriteString("Module PD: same plan in satisfactory and unsatisfactory runs\n")
	if r.CO != nil {
		ops := make([]string, len(r.CO.COS))
		for i, id := range r.CO.COS {
			ops[i] = fmt.Sprintf("O%d(%.2f)", id, r.CO.ScoreOf(id))
		}
		fmt.Fprintf(&b, "Module CO: correlated operator set = {%s}\n", strings.Join(ops, ", "))
	}
	if r.DA != nil {
		fmt.Fprintf(&b, "Module DA: %d correlated component metrics across %v\n",
			len(r.DA.CCS), r.DA.Components())
	}
	if r.CR != nil {
		if len(r.CR.CRS) == 0 {
			b.WriteString("Module CR: record counts unchanged (data properties stable)\n")
		} else {
			fmt.Fprintf(&b, "Module CR: record-count changes on operators %v\n", r.CR.CRS)
		}
	}
	if len(r.Causes) > 0 {
		b.WriteString("Module SD: root-cause confidence\n")
		for _, c := range r.Causes {
			if c.Category == symptoms.Low {
				continue
			}
			fmt.Fprintf(&b, "  %s\n", c)
		}
	}
	if r.IA != nil {
		b.WriteString("Module IA: impact scores\n")
		for _, item := range r.IA.Items {
			fmt.Fprintf(&b, "  %-55s impact=%5.1f%% ops=%v\n",
				item.Cause.String(), item.Score, item.Ops)
		}
	}
	return b.String()
}
