package api

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"diads/internal/dbsys"
	"diads/internal/exec"
	"diads/internal/metrics"
	"diads/internal/plan"
	"diads/internal/simtime"
	"diads/internal/topology"
)

// Wire types: the JSON bodies of the ingest routes. Times and durations
// are simulated seconds (float64), matching simtime's representation,
// so a real system posts whatever clock it monitors under and the
// evidence-window arithmetic is exact.

// WireSample is one monitored observation of a metric on a component.
type WireSample struct {
	Component string  `json:"component"`
	Metric    string  `json:"metric"`
	T         float64 `json:"t"`
	V         float64 `json:"v"`
}

// SampleBatch is the body of POST /v1/ingest/samples. Samples are
// applied in time order (the batch is sorted before appending); the
// instance's ingest watermark advances to the latest sample time, so a
// batch must contain every series' samples up to its watermark — the
// watermark asserts "all evidence up to T has been posted", and gated
// diagnoses are released against it.
type SampleBatch struct {
	Tenant   string       `json:"tenant"`
	Instance string       `json:"instance"`
	Samples  []WireSample `json:"samples"`
	// Watermark, when set, overrides the implied watermark (the latest
	// sample time). Use it to advance the watermark past a quiet period
	// with an empty or partial batch.
	Watermark *float64 `json:"watermark,omitempty"`
}

// WireOp is one operator's monitoring row in a posted run — the
// per-operator signal the paper's instrumented PostgreSQL collected.
// IDs refer to nodes of the server-side plan reconstructed for the
// run's query (the optimizer is deterministic, so a client running the
// same catalog sees identical node IDs).
type WireOp struct {
	ID       int     `json:"id"`
	Type     string  `json:"type"`
	Table    string  `json:"table,omitempty"`
	Start    float64 `json:"start"`
	Stop     float64 `json:"stop"`
	Recorded float64 `json:"recorded"`
	ActRows  float64 `json:"act_rows"`
	EstRows  float64 `json:"est_rows"`
	PhysIO   float64 `json:"phys_io"`
	CacheHit float64 `json:"cache_hit"`
	IOTime   float64 `json:"io_time"`
	LockWait float64 `json:"lock_wait"`
}

// WireRun is one completed query run.
type WireRun struct {
	Query    string   `json:"query"`
	RunID    string   `json:"run_id"`
	Start    float64  `json:"start"`
	Stop     float64  `json:"stop"`
	PhysIO   float64  `json:"phys_io"`
	CacheHit float64  `json:"cache_hit"`
	LockWait float64  `json:"lock_wait"`
	SeqScans int      `json:"seq_scans"`
	IdxScans int      `json:"idx_scans"`
	Ops      []WireOp `json:"ops"`
}

// RunBatch is the body of POST /v1/ingest/runs. Runs flow through the
// instance's monitor exactly like simulator output: baselines update,
// detections gate on the ingest watermark, released events submit to
// the diagnosis pool.
type RunBatch struct {
	Tenant   string    `json:"tenant"`
	Instance string    `json:"instance"`
	Runs     []WireRun `json:"runs"`
}

// WireEvent is one change-log entry, the wire form of topology.Event,
// which documents each kind's payload. The instance applies it through
// testbed.Apply once its evidence reaches T — before planning the first
// run that starts at or after T, or when the watermark reaches T — so
// runs plan under the state as of their start, diagnosis sees the
// post-change state, and the change log Modules PD and SD read.
type WireEvent struct {
	T       float64  `json:"t"`
	Kind    string   `json:"kind"`
	Subject string   `json:"subject"`
	Detail  string   `json:"detail,omitempty"`
	Pool    string   `json:"pool,omitempty"`
	Name    string   `json:"name,omitempty"`
	SizeGB  int      `json:"size_gb,omitempty"`
	Ports   []string `json:"ports,omitempty"`
	Server  string   `json:"server,omitempty"`
	Factor  float64  `json:"factor,omitempty"`
	Old     float64  `json:"old,omitempty"`
	Value   float64  `json:"value,omitempty"`
}

// EventBatch is the body of POST /v1/ingest/events. Its changes may come
// in any order and ahead of their time: each waits, in time order, for
// the instance's evidence to reach its T. Post a change before any run
// that starts after it.
type EventBatch struct {
	Tenant   string      `json:"tenant"`
	Instance string      `json:"instance"`
	Events   []WireEvent `json:"events"`
}

// IngestReply acknowledges an ingest batch the node has applied (HTTP
// 202).
type IngestReply struct {
	Accepted int `json:"accepted"`
	// QueueDepth counts the batches admitted and not yet applied when
	// this one was admitted, itself included: 1 for a client posting one
	// batch at a time. It is the client-visible backpressure signal
	// short of a 429, which answers a batch once Config.QueueDepth wait.
	QueueDepth int `json:"queue_depth"`
}

// ErrorReply is the body of every non-2xx response.
type ErrorReply struct {
	Error string `json:"error"`
}

// runRecord converts a posted run to the monitor's record form, wiring
// the given reconstructed plan in. The operators share one allocation,
// sorted by ID; of a repeated ID the last posted wins. Only what the run
// measured is kept: an operator's type, table and estimate are read from
// p (matchesPlan counts a run whose posted ones disagree).
func (wr *WireRun) runRecord(p *plan.Plan) *exec.RunRecord {
	rec := &exec.RunRecord{
		Query:    wr.Query,
		RunID:    wr.RunID,
		PlanSig:  p.Signature(),
		Plan:     p,
		Start:    simtime.Time(wr.Start),
		Stop:     simtime.Time(wr.Stop),
		PhysIO:   wr.PhysIO,
		CacheHit: wr.CacheHit,
		LockWait: simtime.Duration(wr.LockWait),
		SeqScans: wr.SeqScans,
		IdxScans: wr.IdxScans,
	}
	ops := make([]exec.OpRun, len(wr.Ops))
	for i, op := range wr.Ops {
		ops[i] = exec.OpRun{
			ID:       op.ID,
			Start:    simtime.Time(op.Start),
			Stop:     simtime.Time(op.Stop),
			Recorded: simtime.Duration(op.Recorded),
			ActRows:  op.ActRows,
			PhysIO:   op.PhysIO,
			CacheHit: op.CacheHit,
			IOTime:   simtime.Duration(op.IOTime),
			LockWait: simtime.Duration(op.LockWait),
		}
	}
	slices.SortStableFunc(ops, func(a, b exec.OpRun) int { return cmp.Compare(a.ID, b.ID) })
	rec.Ops = ops[:0]
	for i := range ops {
		if i+1 == len(ops) || ops[i+1].ID != ops[i].ID {
			rec.Ops = append(rec.Ops, ops[i])
		}
	}
	return rec
}

// matchesPlan reports whether every posted operator names a node of p
// with the node's type, table and estimate: whether the client ran the
// plan the node reconstructed for the run.
func (wr *WireRun) matchesPlan(p *plan.Plan) bool {
	for i := range wr.Ops {
		op := &wr.Ops[i]
		n, ok := p.Node(op.ID)
		if !ok || op.Type != string(n.Type) || op.Table != n.Table || op.EstRows != n.EstRows {
			return false
		}
	}
	return true
}

// The validate methods reject batches the node cannot use before they
// are applied, so a bad batch fails at the request with a 400 (the
// error is the reply) instead of silently corrupting an instance's
// baseline.

var errNoInstance = errors.New("batch missing instance")

// paramNames are the parameters a posted ParamChanged may set.
var paramNames = dbsys.DefaultParams().Names()

func (b *SampleBatch) validate() error {
	if b.Instance == "" {
		return errNoInstance
	}
	for i := range b.Samples {
		if err := b.Samples[i].validate(); err != nil {
			return fmt.Errorf("sample %d: %v", i, err)
		}
	}
	return nil
}

func (b *RunBatch) validate() error {
	if b.Instance == "" {
		return errNoInstance
	}
	for i := range b.Runs {
		if err := b.Runs[i].validate(); err != nil {
			return fmt.Errorf("run %d: %v", i, err)
		}
	}
	return nil
}

func (b *EventBatch) validate() error {
	if b.Instance == "" {
		return errNoInstance
	}
	for i := range b.Events {
		if err := b.Events[i].validate(); err != nil {
			return fmt.Errorf("event %d: %v", i, err)
		}
	}
	return nil
}

// validate refuses a mutation payload that cannot apply. Unknown kinds
// and kinds without a payload pass: they are logged as they are.
func (we *WireEvent) validate() error {
	switch topology.EventKind(we.Kind) {
	case topology.EvVolumeCreated:
		if we.Pool != "" && (we.Name == "" || we.SizeGB <= 0) {
			return fmt.Errorf("VolumeCreated in pool %s needs a name and a positive size_gb", we.Pool)
		}
	case topology.EvDMLBatch:
		if we.Subject == "" || !(we.Factor > 0) || math.IsInf(we.Factor, 1) {
			return fmt.Errorf("DMLBatch needs a table subject and a finite positive factor")
		}
	case topology.EvParamChanged:
		if !slices.Contains(paramNames, we.Subject) || math.IsNaN(we.Value) || math.IsInf(we.Value, 0) {
			return fmt.Errorf("ParamChanged needs a known parameter subject and a finite value")
		}
	case topology.EvIndexDropped, topology.EvIndexCreated:
		if we.Subject == "" {
			return fmt.Errorf("%s needs an index subject", we.Kind)
		}
	}
	return nil
}

func (wr *WireRun) validate() error {
	if wr.Query == "" {
		return fmt.Errorf("run missing query")
	}
	if wr.RunID == "" {
		return fmt.Errorf("run %s missing run_id", wr.Query)
	}
	if wr.Stop < wr.Start {
		return fmt.Errorf("run %s/%s: stop %v before start %v", wr.Query, wr.RunID, wr.Stop, wr.Start)
	}
	return nil
}

func (ws *WireSample) validate() error {
	if ws.Component == "" || ws.Metric == "" {
		return fmt.Errorf("sample missing component or metric")
	}
	return nil
}

// WireSampleOf converts a store sample back to wire form — the helper
// the example client and tests use to serialize simulator output.
func WireSampleOf(component string, metric metrics.Metric, s metrics.Sample) WireSample {
	return WireSample{Component: component, Metric: string(metric), T: float64(s.T), V: s.V}
}

// WireRunOf converts an executed run record to wire form. Each
// operator's type, table and estimate come from its node in rec.Plan.
func WireRunOf(rec *exec.RunRecord) WireRun {
	wr := WireRun{
		Query:    rec.Query,
		RunID:    rec.RunID,
		Start:    float64(rec.Start),
		Stop:     float64(rec.Stop),
		PhysIO:   rec.PhysIO,
		CacheHit: rec.CacheHit,
		LockWait: float64(rec.LockWait),
		SeqScans: rec.SeqScans,
		IdxScans: rec.IdxScans,
	}
	for i := range rec.Ops {
		op := &rec.Ops[i]
		wo := WireOp{
			ID:       op.ID,
			Start:    float64(op.Start),
			Stop:     float64(op.Stop),
			Recorded: float64(op.Recorded),
			ActRows:  op.ActRows,
			PhysIO:   op.PhysIO,
			CacheHit: op.CacheHit,
			IOTime:   float64(op.IOTime),
			LockWait: float64(op.LockWait),
		}
		if n, ok := rec.Plan.Node(op.ID); ok {
			wo.Type, wo.Table, wo.EstRows = string(n.Type), n.Table, n.EstRows
		}
		wr.Ops = append(wr.Ops, wo)
	}
	return wr
}

// WireEventOf converts a logged change to wire form, payload and all;
// event is its inverse.
func WireEventOf(e topology.Event) WireEvent {
	we := WireEvent{
		T: float64(e.T), Kind: string(e.Kind), Subject: string(e.Subject), Detail: e.Detail,
		Pool: string(e.Pool), Name: e.Name, SizeGB: e.SizeGB, Server: string(e.Server),
		Factor: e.Factor, Old: e.Old, Value: e.Value,
	}
	for _, p := range e.Ports {
		we.Ports = append(we.Ports, string(p))
	}
	return we
}

// event converts a posted change to the form testbed.Apply takes.
func (we *WireEvent) event() topology.Event {
	e := topology.Event{
		T: simtime.Time(we.T), Kind: topology.EventKind(we.Kind), Subject: topology.ID(we.Subject), Detail: we.Detail,
		Pool: topology.ID(we.Pool), Name: we.Name, SizeGB: we.SizeGB, Server: topology.ID(we.Server),
		Factor: we.Factor, Old: we.Old, Value: we.Value,
	}
	for _, p := range we.Ports {
		e.Ports = append(e.Ports, topology.ID(p))
	}
	return e
}
