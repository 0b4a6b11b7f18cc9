package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"diads/internal/fleet"
	"diads/internal/pipeline"
	"diads/internal/service"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
)

// Handler builds the /v1/ route tree, every route wrapped in the
// deadline/metrics/tracing middleware. Mount it under "/v1/" (Mount does
// this against a telemetry server) or drive it directly in tests.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	ingest := func(pattern, name string, h tracedHandler) {
		mux.Handle(pattern, n.wrap(name, h))
	}
	route := func(pattern, name string, h http.HandlerFunc) {
		ingest(pattern, name, func(w http.ResponseWriter, r *http.Request, _ string) { h(w, r) })
	}
	ingest("POST /v1/ingest/samples", "ingest_samples", n.handleIngestSamples)
	ingest("POST /v1/ingest/runs", "ingest_runs", n.handleIngestRuns)
	ingest("POST /v1/ingest/events", "ingest_events", n.handleIngestEvents)
	route("GET /v1/incidents", "incidents", n.handleIncidents)
	route("GET /v1/incidents/{id}", "incident", n.handleIncident)
	route("GET /v1/candidates", "candidates", n.handleCandidates)
	route("GET /v1/modules", "modules", n.handleModules)
	route("POST /v1/candidates/{kind}/ack", "candidate_ack", n.handleResolve(true))
	route("POST /v1/candidates/{kind}/reject", "candidate_reject", n.handleResolve(false))
	return mux
}

// tracedHandler is a route handler that is handed the request's trace
// ID, which ingest threads through to the diagnosis trace.
type tracedHandler func(w http.ResponseWriter, r *http.Request, traceID string)

// statusWriter captures the response code for the outcome metric.
// Unwrap lets http.ResponseController reach the connection beneath.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// wrap applies the middleware stack: read and write deadlines of
// Timeout on the request's connection, per-route latency and outcome
// counters on the default registry, and a request trace ID recorded as
// a span and handed to the handler — ingest threads it through to the
// diagnosis trace, so /traces tells one story from POST to module.
func (n *Node) wrap(name string, h tracedHandler) http.Handler {
	reg := n.tel.reg
	latency := reg.Histogram("diads_api_request_seconds",
		"Wall time of one API request, by route.",
		telemetry.Labels{"route": name}, nil)
	// The outcome counter and the span's code attribute are resolved once
	// per status code: a registry lookup builds a label map and a
	// canonical key, and the attribute a string and a slice. Spans share
	// the attribute slice; nothing writes to it.
	type outcomeOf struct {
		counter *telemetry.Counter
		attrs   []telemetry.Attr
	}
	var mu sync.Mutex
	outcomes := make(map[int]outcomeOf)
	outcome := func(code int) outcomeOf {
		mu.Lock()
		defer mu.Unlock()
		o, ok := outcomes[code]
		if !ok {
			c := strconv.Itoa(code)
			o = outcomeOf{
				counter: reg.Counter("diads_api_requests_total",
					"API requests, by route and status code.",
					telemetry.Labels{"route": name, "code": c}),
				attrs: []telemetry.Attr{{Key: "code", Value: c}},
			}
			outcomes[code] = o
		}
		return o
	}
	spanName := "api." + name
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// The deadlines bound the request on the connection's own
		// goroutine: a body still arriving at start+Timeout fails its
		// read (readBody answers 503), a reply still unsent fails its
		// write. net/http clears both before the connection's next
		// request. A writer with no connection beneath it (a test
		// recorder) answers ErrNotSupported and runs without them.
		rc := http.NewResponseController(w)
		deadline := start.Add(n.cfg.Timeout)
		if rc.SetReadDeadline(deadline) == nil {
			_ = rc.SetWriteDeadline(deadline)
		}
		traceID := r.Header.Get("X-Diads-Trace")
		if traceID == "" {
			traceID = n.nextTraceID()
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r, traceID)
		wall := time.Since(start)
		latency.Observe(wall.Seconds())
		o := outcome(sw.code)
		o.counter.Inc()
		telemetry.DefaultTracer().Record(telemetry.Span{
			TraceID: traceID, Name: spanName,
			Start: start, Duration: wall,
			Attrs: o.attrs,
		})
	})
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorReply{Error: fmt.Sprintf(format, args...)})
}

const (
	// maxIngestBody bounds one ingest body, which is buffered whole (the
	// example client's largest batch is ≈0.4 MB).
	maxIngestBody = 16 << 20
	// maxPooledBody is the largest body buffer the pool keeps, so one
	// huge batch does not pin its buffer for the life of the node.
	maxPooledBody = 1 << 20
	// retryAfter is the Retry-After hint on 429 replies, in seconds.
	retryAfter = "1"
)

// ingestBuf is what one ingest request borrows from the pool: the
// buffer its body is read into and the scanner that reads it.
type ingestBuf struct {
	body bytes.Buffer
	scan scanner
}

var ingestPool = sync.Pool{New: func() any {
	return &ingestBuf{scan: scanner{names: make(internTable)}}
}}

// release returns the buffer to the pool. Nothing decoded from it
// aliases the body: the scanner and encoding/json both copy strings.
func (in *ingestBuf) release() {
	if in.body.Cap() <= maxPooledBody {
		ingestPool.Put(in)
	}
}

// sampleBatchPool recycles decoded sample batches, for their Samples
// arrays: a batch goes back once the intake worker has applied it, or
// from the handler when it was never queued. Like maxPooledBody, the
// pool keeps no array longer than the scanner would size up front.
var sampleBatchPool = sync.Pool{New: func() any { return new(SampleBatch) }}

func (b *SampleBatch) recycle() {
	if cap(b.Samples) <= maxHint {
		sampleBatchPool.Put(b)
	}
}

// readBody reads the request body whole, up to maxIngestBody. When it
// cannot, it has answered (413; 503 for a body that missed the request
// deadline; 400 for another failed read) and returns nil; otherwise the
// caller releases what it returns.
func (n *Node) readBody(w http.ResponseWriter, r *http.Request) *ingestBuf {
	in := ingestPool.Get().(*ingestBuf)
	in.body.Reset()
	_, err := in.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err == nil {
		return in
	}
	in.release()
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		n.tel.rejected[reasonTooLarge].Inc()
		writeError(w, http.StatusRequestEntityTooLarge, "batch larger than %d bytes", maxIngestBody)
	case errors.Is(err, os.ErrDeadlineExceeded):
		// The write deadline passed with the read one, so the reply gets
		// a window of its own. net/http then closes the connection: the
		// rest of the body was never read.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(n.cfg.Timeout))
		writeError(w, http.StatusServiceUnavailable, "request timed out")
	default:
		writeError(w, http.StatusBadRequest, "parsing batch: %v", err)
	}
	return nil
}

var errTrailing = errors.New("trailing data after batch")

// decodeStrict is the authority on what an ingest body may be:
// encoding/json with unknown fields refused (they are almost always a
// misspelled contract), and nothing but whitespace after the batch — a
// second concatenated batch would otherwise be dropped without a trace.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return errTrailing
	}
	return nil
}

// decodeSamples and decodeRuns try the scanner and, when it declines,
// hand the same bytes to decodeStrict.
func (in *ingestBuf) decodeSamples(b *SampleBatch) error {
	if in.scan.sampleBatch(in.body.Bytes(), b) {
		return nil
	}
	*b = SampleBatch{}
	return decodeStrict(in.body.Bytes(), b)
}

func (in *ingestBuf) decodeRuns(b *RunBatch) error {
	if in.scan.runBatch(in.body.Bytes(), b) {
		return nil
	}
	*b = RunBatch{}
	return decodeStrict(in.body.Bytes(), b)
}

// usable answers 400 and reports false unless the batch decoded and
// passes its own validation (the error is the reply).
func usable(w http.ResponseWriter, decodeErr error, b interface{ validate() error }) bool {
	if decodeErr != nil {
		writeError(w, http.StatusBadRequest, "parsing batch: %v", decodeErr)
		return false
	}
	if err := b.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// acceptIngest enqueues a parsed batch, mapping queue states to the
// backpressure contract: 202 queued, 429 + Retry-After full, 503
// draining. It reports whether the batch was queued — from then on it
// is the intake worker's. The body in has been decoded and is spent;
// the 202 reply is built in its buffer.
func (n *Node) acceptIngest(w http.ResponseWriter, in *ingestBuf, j intakeJob, accepted int) bool {
	err := n.enqueue(j)
	switch {
	case errors.Is(err, errDraining):
		n.tel.rejected[reasonDraining].Inc()
		writeError(w, http.StatusServiceUnavailable, "draining; not accepting ingest")
	case errors.Is(err, errBackpressure):
		n.tel.rejected[reasonBackpressure].Inc()
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "intake queue full; retry after %ss", retryAfter)
	default:
		n.tel.batches.Inc()
		in.body.Reset()
		writeAccepted(w, in.body.AvailableBuffer(), accepted, len(n.intake))
	}
	return err == nil
}

// writeAccepted writes the 202 reply byte for byte as writeJSON would
// write IngestReply, appending it to buf: every accepted batch gets one,
// and encoding/json would box the reply and build an encoder for it.
func writeAccepted(w http.ResponseWriter, buf []byte, accepted, queueDepth int) {
	buf = append(buf, `{"accepted":`...)
	buf = strconv.AppendInt(buf, int64(accepted), 10)
	buf = append(buf, `,"queue_depth":`...)
	buf = strconv.AppendInt(buf, int64(queueDepth), 10)
	buf = append(buf, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write(buf)
}

func (n *Node) handleIngestSamples(w http.ResponseWriter, r *http.Request, traceID string) {
	in := n.readBody(w, r)
	if in == nil {
		return
	}
	defer in.release()
	b := sampleBatchPool.Get().(*SampleBatch)
	if !usable(w, in.decodeSamples(b), b) ||
		!n.acceptIngest(w, in, intakeJob{samples: b, traceID: traceID}, len(b.Samples)) {
		b.recycle()
	}
}

func (n *Node) handleIngestRuns(w http.ResponseWriter, r *http.Request, traceID string) {
	in := n.readBody(w, r)
	if in == nil {
		return
	}
	defer in.release()
	b := new(RunBatch)
	if !usable(w, in.decodeRuns(b), b) {
		return
	}
	n.acceptIngest(w, in, intakeJob{runs: b, traceID: traceID}, len(b.Runs))
}

// handleIngestEvents stays on encoding/json alone: a tenant-day posts a
// handful of events against tens of thousands of samples.
func (n *Node) handleIngestEvents(w http.ResponseWriter, r *http.Request, traceID string) {
	in := n.readBody(w, r)
	if in == nil {
		return
	}
	defer in.release()
	b := new(EventBatch)
	if !usable(w, decodeStrict(in.body.Bytes(), b), b) {
		return
	}
	n.acceptIngest(w, in, intakeJob{events: b, traceID: traceID}, len(b.Events))
}

// IncidentView is the query-route rendering of one open incident — the
// registry row the console's ranked panel shows, plus a stable ID for
// the detail route.
type IncidentView struct {
	ID         string  `json:"id"`
	Tenant     string  `json:"tenant,omitempty"`
	Instance   string  `json:"instance,omitempty"`
	Query      string  `json:"query"`
	Kind       string  `json:"kind"`
	Subject    string  `json:"subject"`
	Confidence float64 `json:"confidence"`
	ImpactPct  float64 `json:"impact_pct"`
	EstImpact  float64 `json:"est_impact_seconds"`
	Events     int     `json:"events"`
	FirstSeen  float64 `json:"first_seen"`
	LastSeen   float64 `json:"last_seen"`
	TraceID    string  `json:"trace_id,omitempty"`
}

func (n *Node) incidentView(inc *service.Incident) IncidentView {
	tenant, bare := fleet.SplitScoped(inc.Instance)
	v := IncidentView{
		ID:         inc.ID(),
		Tenant:     tenant,
		Instance:   bare,
		Query:      inc.Query,
		Kind:       inc.Kind,
		Subject:    inc.Subject,
		Confidence: inc.Confidence,
		ImpactPct:  inc.ImpactPct,
		EstImpact:  inc.EstImpact(),
		Events:     inc.Events,
		FirstSeen:  float64(inc.FirstSeen),
		LastSeen:   float64(inc.LastSeen),
	}
	if inc.Trace != nil {
		v.TraceID = inc.Trace.TraceID
	}
	return v
}

func (n *Node) handleIncidents(w http.ResponseWriter, r *http.Request) {
	incs := n.svc.Registry().Incidents()
	tenant := r.URL.Query().Get("tenant")
	out := make([]IncidentView, 0, len(incs))
	for i := range incs {
		t, _ := fleet.SplitScoped(incs[i].Instance)
		if tenant != "" && t != tenant {
			continue
		}
		out = append(out, n.incidentView(&incs[i]))
	}
	writeJSON(w, http.StatusOK, map[string]any{"incidents": out})
}

// CauseView is one ranked cause inside an incident detail.
type CauseView struct {
	Kind       string  `json:"kind"`
	Subject    string  `json:"subject"`
	Confidence float64 `json:"confidence"`
	Category   string  `json:"category"`
}

// ModuleTimingView is one workflow module's timing in a diagnosis trace.
type ModuleTimingView struct {
	Module string  `json:"module"`
	Status string  `json:"status"`
	WallMS float64 `json:"wall_ms"`
}

func (n *Node) handleIncident(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	inc, ok := n.svc.Registry().Incident(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no incident %q", id)
		return
	}
	detail := map[string]any{"incident": n.incidentView(&inc)}
	if inc.Result != nil {
		causes := make([]CauseView, 0, len(inc.Result.Causes))
		for _, c := range inc.Result.Causes {
			causes = append(causes, CauseView{
				Kind: c.Kind, Subject: c.Subject,
				Confidence: c.Confidence, Category: string(c.Category),
			})
		}
		detail["causes"] = causes
	}
	if inc.Trace != nil {
		detail["modules"] = moduleTimings(inc.Trace)
	}
	writeJSON(w, http.StatusOK, detail)
}

func moduleTimings(t *pipeline.Trace) []ModuleTimingView {
	out := make([]ModuleTimingView, 0, len(t.Modules))
	for _, mt := range t.Modules {
		out = append(out, ModuleTimingView{
			Module: mt.Module,
			Status: string(mt.Status),
			WallMS: float64(mt.Wall.Microseconds()) / 1e3,
		})
	}
	return out
}

// CandidateView is one mined-symptom candidate in the lifecycle.
type CandidateView struct {
	Kind      string `json:"kind"`
	State     string `json:"state,omitempty"`
	Support   int    `json:"support,omitempty"`
	Incidents int    `json:"incidents,omitempty"`
	Rendered  string `json:"rendered,omitempty"`
	Reason    string `json:"reason,omitempty"`
	Verdict   string `json:"verdict,omitempty"`
}

func (n *Node) handleCandidates(w http.ResponseWriter, _ *http.Request) {
	st := n.learner.Stats()
	pending := make([]CandidateView, 0, len(st.Pending))
	for _, c := range st.Pending {
		pending = append(pending, CandidateView{
			Kind: c.Kind, State: c.State, Support: c.Support,
			Incidents: c.Incidents, Rendered: c.Rendered,
			Verdict: string(c.Validation.Verdict),
		})
	}
	installed := make([]CandidateView, 0, len(st.Installed))
	for _, e := range st.Installed {
		installed = append(installed, CandidateView{
			Kind: e.Kind, Rendered: e.Entry.Render(),
			Verdict: string(e.Validation.Verdict),
		})
	}
	rejected := make([]CandidateView, 0, len(st.Rejected))
	for _, rj := range st.Rejected {
		rejected = append(rejected, CandidateView{Kind: rj.Kind, Reason: rj.Reason})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"confirmed": st.Confirmed,
		"held_out":  st.HeldOut,
		"healthy":   st.Healthy,
		"pending":   pending,
		"installed": installed,
		"rejected":  rejected,
	})
}

func (n *Node) handleModules(w http.ResponseWriter, _ *http.Request) {
	stats := n.svc.ModuleStats()
	type row struct {
		Module    string  `json:"module"`
		Runs      int64   `json:"runs"`
		CacheHits int64   `json:"cache_hits"`
		Skipped   int64   `json:"skipped"`
		WallMS    float64 `json:"wall_ms"`
	}
	out := make([]row, 0, len(stats))
	for _, st := range stats {
		out = append(out, row{
			Module: st.Module, Runs: st.Runs, CacheHits: st.CacheHits,
			Skipped: st.Skipped, WallMS: float64(st.Wall.Microseconds()) / 1e3,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"modules": out})
}

// handleResolve settles a pending candidate: ack installs a validated
// candidate (never overriding a failed validation), reject retires it.
func (n *Node) handleResolve(accept bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		kind := r.PathValue("kind")
		if !symptoms.IsMined(kind) {
			// Operators see the bare cause kind in the console; accept
			// both spellings of a mined kind.
			kind += symptoms.MinedSuffix
		}
		if err := n.learner.Resolve(kind, accept); err != nil {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		action := "rejected"
		if accept {
			action = "installed"
		}
		writeJSON(w, http.StatusOK, map[string]string{"kind": kind, "result": action})
	}
}
