package service

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"diads/internal/diag"
	"diads/internal/monitor"
	"diads/internal/simtime"
)

// Incident is one open problem: a root cause aggregated across every
// diagnosis that identified it for a query.
type Incident struct {
	// Instance names the fleet instance the incident belongs to; empty
	// in single-instance deployments.
	Instance string
	Query    string
	// Kind and Subject name the root cause, diag.Result.RootCause, in the
	// symptoms database's vocabulary: a plan change files under
	// symptoms.CausePlanRegression and the change that explains it.
	Kind    string
	Subject string
	// Confidence is the latest diagnosis's confidence (percent).
	Confidence float64
	// ImpactPct is the latest Module IA impact score (percent of the
	// extra plan time explained).
	ImpactPct float64
	// TotalExtra accumulates the per-event slowdown (duration minus
	// baseline), the magnitude the incident has cost so far.
	TotalExtra simtime.Duration
	// Events counts the slowdown events attributed to the incident.
	Events int
	// FirstSeen and LastSeen bound the incident's lifetime.
	FirstSeen, LastSeen simtime.Time
	// Window is the latest diagnosis window.
	Window simtime.Interval
	// Result is the latest full diagnosis; its Trace is the per-module
	// execution trace (wall time and short-circuit decisions) the
	// console's workflow-timing panel renders per incident.
	Result *diag.Result
}

// EstImpact is the incident's ranking key: the cumulative slowdown
// seconds the cause explains (Module IA's share of each event's extra
// running time; all of it for a plan change).
func (inc *Incident) EstImpact() float64 {
	return inc.ImpactPct / 100 * inc.TotalExtra.Seconds()
}

// ID is the incident's stable detail-route ID: the 64-bit FNV-1a hash
// of its full identity (instance, query, kind, subject, each followed by
// a zero byte) in lower-case hex. Deterministic per seed, a single URL
// segment.
func (inc *Incident) ID() string { return strconv.FormatUint(inc.idHash(), 16) }

// idHash is the hash ID formats, computed without allocating: Incident
// hashes every open incident per lookup.
func (inc *Incident) idHash() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, s := range [...]string{inc.Instance, inc.Query, inc.Kind, inc.Subject} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h *= prime // the zero byte after the field
	}
	return h
}

// incidentKey groups diagnoses into incidents.
type incidentKey struct {
	instance, query, kind, subject string
}

// Registry aggregates diagnoses into ranked open incidents. All methods
// are safe for concurrent use by the service's workers.
type Registry struct {
	mu   sync.Mutex
	open map[incidentKey]*Incident
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{open: make(map[incidentKey]*Incident)}
}

// fileUnder returns the incident a diagnosis res of ev files under and
// the root cause that names it; false when res names nothing above low
// confidence, which is not an incident.
func fileUnder(ev monitor.SlowdownEvent, res *diag.Result) (incidentKey, diag.ImpactItem, bool) {
	top, ok := res.RootCause()
	k := incidentKey{instance: ev.Instance, query: ev.Query, kind: top.Cause.Kind, subject: top.Cause.Subject}
	return k, top, ok
}

// Record folds one diagnosis into the registry: its root cause becomes or
// updates an incident, and res becomes the incident's latest diagnosis
// when ev is its latest event. It reports whether res named a cause,
// that is whether it filed an incident.
func (r *Registry) Record(ev monitor.SlowdownEvent, res *diag.Result) bool {
	k, top, ok := fileUnder(ev, res)
	if !ok {
		return false
	}
	extra := ev.Duration - ev.Baseline
	if extra < 0 {
		extra = 0
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	inc := r.open[k]
	if inc == nil {
		inc = &Incident{
			Instance: ev.Instance, Query: ev.Query, Kind: k.kind, Subject: k.subject,
			FirstSeen: ev.At,
		}
		r.open[k] = inc
	}
	inc.TotalExtra += extra
	inc.Events++
	if ev.At < inc.FirstSeen {
		inc.FirstSeen = ev.At
	}
	// "Latest" fields follow the event latest in simulated time, not the
	// diagnosis that happened to complete last — concurrent workers may
	// finish out of order, and incident state must stay deterministic
	// per seed.
	if ev.At >= inc.LastSeen {
		inc.Confidence = top.Cause.Confidence
		inc.ImpactPct = top.Score
		inc.LastSeen = ev.At
		inc.Window = ev.Window
		inc.Result = res
	}
	return true
}

// FiledBy returns a copy of the incident the diagnosis res of ev filed,
// as it stands now, copying no other; empty when res named no cause. It
// is what changed in the registry when Record(ev, res) returned, since
// only a diagnosis changes an incident.
func (r *Registry) FiledBy(ev monitor.SlowdownEvent, res *diag.Result) []Incident {
	k, _, ok := fileUnder(ev, res)
	if !ok {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if inc := r.open[k]; inc != nil {
		return []Incident{*inc}
	}
	return nil
}

// Incidents returns the open incidents ranked by estimated impact
// (descending), ties broken by recency then the full stable identity
// (instance, query, kind, subject). The tie-break chain covers every
// field of the incident key, so the ranking is a total order independent
// of map iteration and diagnosis completion order — fleet-level grouping
// built on top of it must never flutter between runs.
func (r *Registry) Incidents() []Incident {
	r.mu.Lock()
	out := make([]Incident, 0, len(r.open))
	for _, inc := range r.open {
		out = append(out, *inc)
	}
	r.mu.Unlock()
	SortIncidents(out)
	return out
}

// SortIncidents sorts incidents into the registry's ranking order:
// estimated impact descending, ties broken by recency then the full
// stable identity (instance, query, kind, subject). It is exported so
// the sharded fleet can merge per-shard registries into one fleet-wide
// ranking under exactly the contract Incidents guarantees — concatenate,
// sort, and the result is byte-stable regardless of which shard each
// incident came from.
func SortIncidents(out []Incident) {
	sort.Slice(out, func(i, j int) bool { return ranksBefore(&out[i], &out[j]) })
}

// ranksBefore is the registry's ranking order: whether a ranks above b.
func ranksBefore(a, b *Incident) bool {
	if a.EstImpact() != b.EstImpact() {
		return a.EstImpact() > b.EstImpact()
	}
	if a.LastSeen != b.LastSeen {
		return a.LastSeen > b.LastSeen
	}
	if a.Instance != b.Instance {
		return a.Instance < b.Instance
	}
	if a.Query != b.Query {
		return a.Query < b.Query
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Subject < b.Subject
}

// Incident returns a copy of the open incident whose ID is id, copying
// no other. Should two IDs collide, the one that ranks first in
// Incidents' order wins.
func (r *Registry) Incident(id string) (Incident, bool) {
	want, err := strconv.ParseUint(id, 16, 64)
	if err != nil || strconv.FormatUint(want, 16) != id {
		return Incident{}, false // no ID is spelled this way
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var found *Incident
	for _, inc := range r.open {
		if inc.idHash() == want && (found == nil || ranksBefore(inc, found)) {
			found = inc
		}
	}
	if found == nil {
		return Incident{}, false
	}
	return *found, true
}

// Len returns the number of open incidents.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
}

// Render formats the ranked incident report an operator reads.
func (r *Registry) Render() string {
	incs := r.Incidents()
	var b strings.Builder
	b.WriteString("open incidents (ranked by estimated impact)\n")
	b.WriteString(strings.Repeat("=", 78) + "\n")
	if len(incs) == 0 {
		b.WriteString("  none\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-4s %-5s %-36s %-14s %6s %6s %9s\n",
		"rank", "query", "cause(subject)", "last seen", "events", "conf%", "impact(s)")
	for i, inc := range incs {
		q := inc.Query
		if inc.Instance != "" {
			q = inc.Instance + "/" + inc.Query
		}
		fmt.Fprintf(&b, "  %-4d %-5s %-36s %-14s %6d %6.0f %9.1f\n",
			i+1, q, fmt.Sprintf("%s(%s)", inc.Kind, inc.Subject),
			inc.LastSeen.Clock(), inc.Events, inc.Confidence, inc.EstImpact())
	}
	return b.String()
}
