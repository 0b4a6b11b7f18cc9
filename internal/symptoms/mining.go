package symptoms

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// The paper's Section 7 proposes a self-evolving symptoms database:
// "machine learning techniques contributing towards identifying potential
// symptoms which can be checked by an expert and added to the symptoms
// database. Considering that a symptoms database may never be complete,
// this provides a self-evolving mechanism."
//
// Miner implements that loop: it accumulates the fact bases of diagnosed
// incidents together with the confirmed root cause, and proposes
// candidate entries — the facts that recur across an incident class but
// are absent from quiet periods — for an expert to review.

// Incident is one diagnosed episode: its facts and the confirmed cause.
type Incident struct {
	Facts *FactBase
	// CauseKind and Subject record the expert-confirmed root cause.
	CauseKind string
	Subject   string
}

// MinedSuffix marks cause kinds proposed by the miner rather than
// authored by an expert. Downstream consumers treat mined causes as
// corroborating evidence: the incident registry never files an incident
// under a mined kind, but the fleet layer counts a mined entry scoring
// high in another instance's diagnosis as a successful symptom transfer.
const MinedSuffix = "-mined"

// IsMined reports whether a cause kind was produced by the miner.
func IsMined(kind string) bool { return strings.HasSuffix(kind, MinedSuffix) }

// BaseKind strips the mined suffix, recovering the expert-confirmed
// cause kind a mined entry corroborates.
func BaseKind(kind string) string { return strings.TrimSuffix(kind, MinedSuffix) }

// Miner accumulates incidents and proposes codebook entries. It folds
// each incident and healthy base once, as it is added, so a proposal
// costs what the discriminative facts cost, not what the history does.
type Miner struct {
	// classes maps a cause kind to its class.
	classes map[string]*minedClass
	// background holds the names present in any healthy period, sorted:
	// facts that are always present carry no diagnostic signal.
	background []string
	// exprs memoizes each name's ge(name, 0.8) condition; nil marks a
	// name the condition DSL cannot express.
	exprs map[string]Expr
}

// minedClass is one cause kind's incidents, folded: how many there are
// and the names present in every one of them, sorted.
type minedClass struct {
	size   int
	common []string
}

// AddIncident records a confirmed incident. A class's first incident
// seeds its common names; each later one drops the names it lacks.
func (m *Miner) AddIncident(inc Incident) {
	c := m.classes[inc.CauseKind]
	if c == nil {
		if m.classes == nil {
			m.classes = make(map[string]*minedClass)
		}
		c = &minedClass{}
		m.classes[strings.Clone(inc.CauseKind)] = c
		fb := inc.Facts
		for i := range fb.n {
			if fb.recs[i].score >= minedScoreThreshold {
				c.common = append(c.common, strings.Clone(fb.name(i)))
			}
		}
	} else {
		c.common = slices.DeleteFunc(c.common, func(name string) bool {
			f, _ := inc.Facts.lookup(name)
			return !(f.Score >= minedScoreThreshold) // a NaN score is absent too
		})
	}
	c.size++
}

// AddBackground records a healthy-period fact base's present names.
func (m *Miner) AddBackground(fb *FactBase) {
	for i := range fb.n {
		if fb.recs[i].score >= minedScoreThreshold {
			name := fb.name(i)
			if at, found := slices.BinarySearch(m.background, name); !found {
				m.background = slices.Insert(m.background, at, strings.Clone(name))
			}
		}
	}
}

// CandidateEntry is a proposed codebook entry awaiting validation and
// review.
type CandidateEntry struct {
	CauseKind string
	// Conditions are the proposed condition expressions with suggested
	// weights (normalized to 100).
	Conditions []Condition
	// Support is how many incidents of the class exhibit every proposed
	// condition.
	Support int
	// Incidents is the class size.
	Incidents int
	// Skipped counts discriminative facts dropped because their names do
	// not survive the condition DSL (delimiters in a metric name, say) —
	// the miner skips them rather than proposing an unparseable entry.
	Skipped int
}

// Entry converts the candidate into an installable database entry. The
// conditions reference concrete fact names (not templates), so the entry
// is global-scoped: it is evaluated once per diagnosis and fires wherever
// the mined symptom combination recurs — the mechanism that transfers
// diagnosis knowledge from one fleet instance to another.
func (c CandidateEntry) Entry() Entry {
	return Entry{
		Kind:       c.CauseKind,
		Scope:      ScopeGlobal,
		Fix:        fmt.Sprintf("mined from %d confirmed incidents; review before adopting", c.Support),
		Conditions: c.Conditions,
	}
}

// Render formats the candidate in the administrator-editable DSL, ready
// to paste into the database once reviewed. The body below the comment
// line is exactly Entry().Render(), so an accepted candidate reloads
// through Parse.
func (c CandidateEntry) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# mined from %d/%d incidents — review before adopting\n", c.Support, c.Incidents)
	if c.Skipped > 0 {
		fmt.Fprintf(&b, "# %d facts skipped: names not expressible in the condition DSL\n", c.Skipped)
	}
	b.WriteString(c.Entry().Render())
	return b.String()
}

// minedScoreThreshold is the fact score above which a fact counts as
// "present" during mining.
const minedScoreThreshold = 0.8

// Propose mines candidate entries: for each cause kind with at least
// minIncidents confirmed incidents, the facts that are present
// (score >= 0.8) in every incident of the class but in no background
// period become the conditions of a candidate entry.
func (m *Miner) Propose(minIncidents int) []CandidateEntry {
	var out []CandidateEntry
	for _, kind := range slices.Sorted(maps.Keys(m.classes)) {
		class := m.classes[kind]
		if class.size < minIncidents {
			continue
		}
		cand := CandidateEntry{
			CauseKind: kind + MinedSuffix,
			Support:   class.size,
			Incidents: class.size,
		}
		// Fact names are data, not code: one with a DSL delimiter in it
		// must not panic the caller mid-proposal. Unparseable names are
		// skipped and counted; weights normalize over what survives.
		for _, name := range class.common {
			if m.inBackground(name) {
				continue
			}
			if expr := m.condition(name); expr != nil {
				cand.Conditions = append(cand.Conditions, Condition{Expr: expr})
			} else {
				cand.Skipped++
			}
		}
		if len(cand.Conditions) == 0 {
			continue
		}
		weight := 100.0 / float64(len(cand.Conditions))
		for i := range cand.Conditions {
			cand.Conditions[i].Weight = weight
		}
		out = append(out, cand)
	}
	return out
}

// inBackground reports whether a name is present in any healthy period.
// The name is a pattern, as FactBase.MaxScore reads it: one with a "*"
// matches every background name it globs.
func (m *Miner) inBackground(name string) bool {
	if _, found := slices.BinarySearch(m.background, name); found || literalPattern(name) {
		return found
	}
	return slices.ContainsFunc(m.background, func(bg string) bool { return MatchPattern(name, bg) })
}

// condition returns the name's ge(name, 0.8) condition, or nil when the
// name does not survive the condition DSL, parsing each name once.
func (m *Miner) condition(name string) Expr {
	expr, ok := m.exprs[name]
	if !ok {
		var err error
		if expr, err = ParseExpr(fmt.Sprintf("ge(%s, %g)", name, minedScoreThreshold)); err != nil {
			expr = nil
		}
		if m.exprs == nil {
			m.exprs = make(map[string]Expr)
		}
		m.exprs[name] = expr
	}
	return expr
}
