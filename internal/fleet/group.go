package fleet

import (
	"fmt"
	"sort"
	"strings"

	"diads/internal/service"
	"diads/internal/simtime"
)

// IncidentPart is one instance's share of a grouped fleet incident.
type IncidentPart struct {
	Instance   string
	Query      string
	Events     int
	Confidence float64
	Impact     float64
	FirstSeen  simtime.Time
	LastSeen   simtime.Time
}

// GroupedIncident is one fleet-level problem: registry incidents folded
// across instances. Incidents whose subject is shared SAN infrastructure
// and whose instance is attached to it merge into a single correlated
// incident; everything else stays per-instance (a group of one).
type GroupedIncident struct {
	Kind    string
	Subject string
	// Shared reports whether the group correlates across instances via
	// the shared SAN infrastructure.
	Shared bool
	// Queries lists the distinct victim queries (sorted).
	Queries []string
	// Parts is the per-instance breakdown, heaviest impact first.
	Parts []IncidentPart
	// TotalImpact sums the parts' estimated impact (seconds of slowdown
	// explained); Events their attributed slowdown events.
	TotalImpact float64
	Events      int
	FirstSeen   simtime.Time
	LastSeen    simtime.Time
}

// InstanceReport is one instance's summary line.
type InstanceReport struct {
	ID     string
	Shared bool
	// Events counts the monitor's slowdown events; FirstDetection is
	// the earliest (zero if none).
	Events         int
	Detected       bool
	FirstDetection simtime.Time
	// Incidents counts the instance's open registry incidents.
	Incidents int
	// Transfers counts the instance's diagnoses corroborated by mined
	// symptoms it did not author.
	Transfers int
}

// Report is the fleet run's outcome. Render is byte-deterministic per
// seed: it carries no wall-clock times.
type Report struct {
	Instances []InstanceReport
	Groups    []GroupedIncident
	// Stats sums the per-shard services' lifetime counters, each
	// deterministic per seed under the fleet's barrier coordination.
	Stats    service.Stats
	Learning LearnStats
}

// report merges the per-shard services into the fleet view: counters
// sum, registries concatenate and re-sort under the registry's own
// ranking contract. Per-shard incident state is a function of the event
// stream alone, so the merged view is byte-identical across shard
// counts.
func (f *Fleet) report() *Report {
	rep := &Report{Learning: f.ex.learn.Stats()}
	var incs []service.Incident
	for _, sh := range f.shards {
		st := sh.svc.Stats()
		rep.Stats.Submitted += st.Submitted
		rep.Stats.Deduped += st.Deduped
		rep.Stats.Rejected += st.Rejected
		rep.Stats.Completed += st.Completed
		rep.Stats.Failed += st.Failed
		rep.Stats.QueueDepth += st.QueueDepth
		incs = append(incs, sh.svc.Registry().Incidents()...)
	}
	service.SortIncidents(incs)
	perInstance := make(map[string]int, len(f.instances))
	for _, inc := range incs {
		perInstance[inc.Instance]++
	}
	for _, st := range f.instances {
		// Run released every detection its monitor minted.
		events := int(st.Monitor.Stats().Events)
		rep.Instances = append(rep.Instances, InstanceReport{
			ID: st.ID, Shared: st.Shared,
			Events: events, Detected: events > 0, FirstDetection: st.firstDetection,
			Incidents: perInstance[st.ID],
			Transfers: int(st.transfers.Load()),
		})
	}
	rep.Groups = f.group(incs)
	return rep
}

// group merges ranked registry incidents into fleet incidents.
func (f *Fleet) group(incs []service.Incident) []GroupedIncident {
	type gkey struct{ instance, query, kind, subject string }
	byKey := make(map[gkey]*GroupedIncident)
	var order []gkey
	for _, inc := range incs {
		st := f.byID[inc.Instance]
		shared := st != nil && st.Shared && f.shared[inc.Subject]
		k := gkey{kind: inc.Kind, subject: inc.Subject}
		if !shared {
			k.instance, k.query = inc.Instance, inc.Query
		}
		g := byKey[k]
		if g == nil {
			g = &GroupedIncident{
				Kind: inc.Kind, Subject: inc.Subject, Shared: shared,
				FirstSeen: inc.FirstSeen, LastSeen: inc.LastSeen,
			}
			byKey[k] = g
			order = append(order, k)
		}
		g.TotalImpact += inc.EstImpact()
		g.Events += inc.Events
		if inc.FirstSeen < g.FirstSeen {
			g.FirstSeen = inc.FirstSeen
		}
		if inc.LastSeen > g.LastSeen {
			g.LastSeen = inc.LastSeen
		}
		g.Parts = append(g.Parts, IncidentPart{
			Instance: inc.Instance, Query: inc.Query,
			Events: inc.Events, Confidence: inc.Confidence, Impact: inc.EstImpact(),
			FirstSeen: inc.FirstSeen, LastSeen: inc.LastSeen,
		})
	}
	out := make([]GroupedIncident, 0, len(order))
	for _, k := range order {
		g := byKey[k]
		sort.Slice(g.Parts, func(i, j int) bool {
			if g.Parts[i].Impact != g.Parts[j].Impact {
				return g.Parts[i].Impact > g.Parts[j].Impact
			}
			return g.Parts[i].Instance < g.Parts[j].Instance
		})
		seen := make(map[string]bool)
		for _, p := range g.Parts {
			if !seen[p.Query] {
				seen[p.Query] = true
				g.Queries = append(g.Queries, p.Query)
			}
		}
		sort.Strings(g.Queries)
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalImpact != out[j].TotalImpact {
			return out[i].TotalImpact > out[j].TotalImpact
		}
		if out[i].LastSeen != out[j].LastSeen {
			return out[i].LastSeen > out[j].LastSeen
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Subject != out[j].Subject {
			return out[i].Subject < out[j].Subject
		}
		// Distinct per-instance groups of the same cause: order by owner.
		return out[i].Parts[0].Instance < out[j].Parts[0].Instance
	})
	return out
}

// SharedGroup returns the top-ranked cross-instance group (nil if the
// run produced none) — the correlated fleet incident the operator acts
// on first.
func (r *Report) SharedGroup() *GroupedIncident {
	for i := range r.Groups {
		if r.Groups[i].Shared {
			return &r.Groups[i]
		}
	}
	return nil
}

// Render formats the fleet report. The output is byte-identical per
// seed across MaxStreams and service worker settings.
func (r *Report) Render() string {
	var b strings.Builder
	shared := 0
	for _, ir := range r.Instances {
		if ir.Shared {
			shared++
		}
	}
	fmt.Fprintf(&b, "fleet incidents — %d instances (%d on the shared pool)\n",
		len(r.Instances), shared)
	b.WriteString(strings.Repeat("=", 78) + "\n")
	if len(r.Groups) == 0 {
		b.WriteString("  none\n")
	} else {
		fmt.Fprintf(&b, "  %-4s %-7s %-38s %5s %6s %9s\n",
			"rank", "scope", "cause(subject)", "inst", "events", "impact(s)")
		for i, g := range r.Groups {
			scope := "local"
			if g.Shared {
				scope = "shared"
			}
			fmt.Fprintf(&b, "  %-4d %-7s %-38s %2d/%-2d %6d %9.1f\n",
				i+1, scope, fmt.Sprintf("%s(%s)", g.Kind, g.Subject),
				len(g.Parts), len(r.Instances), g.Events, g.TotalImpact)
			for _, p := range g.Parts {
				fmt.Fprintf(&b, "       %-8s %-4s events=%-3d conf=%-3.0f impact=%-7.1f %s – %s\n",
					p.Instance, p.Query, p.Events, p.Confidence, p.Impact,
					p.FirstSeen.Clock(), p.LastSeen.Clock())
			}
		}
	}
	b.WriteString("instances\n")
	fmt.Fprintf(&b, "  %-8s %-6s %6s %-15s %9s %9s\n",
		"id", "pool", "events", "first-detection", "incidents", "transfers")
	for _, ir := range r.Instances {
		pool, det := "-", "-"
		if ir.Shared {
			pool = "shared"
		}
		if ir.Detected {
			det = ir.FirstDetection.Clock()
		}
		fmt.Fprintf(&b, "  %-8s %-6s %6d %-15s %9d %9d\n",
			ir.ID, pool, ir.Events, det, ir.Incidents, ir.Transfers)
	}
	fmt.Fprintf(&b, "service: submitted=%d deduped=%d rejected=%d completed=%d failed=%d\n",
		r.Stats.Submitted, r.Stats.Deduped, r.Stats.Rejected,
		r.Stats.Completed, r.Stats.Failed)
	lr := r.Learning
	fmt.Fprintf(&b, "symptom learning: confirmed=%d held-out=%d healthy=%d installed=%d pending=%d rejected=%d transfers=%d\n",
		lr.Confirmed, lr.HeldOut, lr.Healthy,
		len(lr.Installed), len(lr.Pending), len(lr.Rejected), lr.Transfers)
	for _, e := range lr.Installed {
		fmt.Fprintf(&b, "  installed %s (mined from %s)\n",
			e.Kind, strings.Join(e.Sources, " "))
	}
	for _, p := range lr.Pending {
		fmt.Fprintf(&b, "  pending %s — %s\n", p.Kind, p.State)
	}
	for _, rej := range lr.Rejected {
		fmt.Fprintf(&b, "  rejected %s — %s\n", rej.Kind, rej.Reason)
	}
	if len(lr.TransferInstances) > 0 {
		fmt.Fprintf(&b, "  mined symptoms applied on %s\n",
			strings.Join(lr.TransferInstances, " "))
	}
	return b.String()
}
