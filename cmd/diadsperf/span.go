package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Harness-side tracing: a span around every call the harness makes into
// a layer, kept in memory and written out when the run ends. Spans
// inside the program are a later change; these only ever wrap public
// functions, from the benchmark's own files.

// layer names a module on the product path (or the rig that feeds it).
type layer string

const (
	layerAPI      layer = "api"
	layerMetrics  layer = "metrics"
	layerMonitor  layer = "monitor"
	layerService  layer = "service"
	layerPipeline layer = "pipeline"
	layerFleet    layer = "fleet"
	layerRig      layer = "testbed"
	layerHarness  layer = "harness"
)

// productLayers is the product path in flow order.
var productLayers = []layer{layerAPI, layerMetrics, layerMonitor, layerService, layerPipeline, layerFleet}

// span is one timed call. IDs start at 1; parent 0 means a root. Group
// is the identifier the spans of one batch, tenant or diagnosis share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Group  int    `json:"group"`
	Name   string `json:"name"`
	Layer  layer  `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. A nil *tracer is tracing off: start hands back
// a handle whose end does nothing, so the untraced runs that produce the
// end-to-end metrics pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanHandle ends a started span.
type spanHandle struct {
	t  *tracer
	id int
}

func (t *tracer) start(name string, l layer, parent, group int) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name, Layer: l, Start: now})
	return spanHandle{t: t, id: len(t.spans)}
}

func (h spanHandle) end() {
	if h.t == nil {
		return
	}
	now := int64(time.Since(h.t.t0))
	h.t.mu.Lock()
	h.t.spans[h.id-1].End = now
	h.t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of its interval its direct children cover (overlapping children
// are counted once, children are clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// writeSpans writes the spans as trace-<workload>.jsonl, one span per
// line.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
