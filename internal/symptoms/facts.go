// Package symptoms implements the paper's symptoms database (Module SD):
// a collection of root-cause entries in the Codebook-inspired format
// Cond1 & Cond2 & ... & Condz, where each condition asserts the presence
// or absence of a symptom, carries a weight (weights per entry sum to
// 100%), and symptoms are written in a small expression language over a
// base set of facts — including temporal conditions such as "the volume
// was created before the first unsatisfactory run".
//
// The diagnosis workflow turns module outputs (correlated operators,
// metric anomaly scores, record-count anomalies, configuration events)
// into facts; the database maps those symptoms to semantically meaningful
// root causes with confidence scores, categorized high (>= 80%), medium
// (>= 50%), and low.
package symptoms

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"

	"diads/internal/simtime"
)

// Fact is one base symptom: a named observation with a score in [0, 1]
// and, where meaningful, a timestamp (for temporal conditions).
type Fact struct {
	Name  string
	Score float64
	T     simtime.Time
	HasT  bool
}

// FactBase is a set of facts queryable by glob-like patterns.
//
// The name index is maintained, not computed: names holds every fact name
// in sorted order, inserted by binary search when Add or AddTimed creates
// a fact (facts are never deleted). A wildcard probe reads only the index
// range that shares the pattern's literal prefix, and All and Fingerprint
// walk the index instead of sorting the map. Fact bases outlive their
// diagnosis and are read concurrently (service registry, fleet miner and
// validator, console); because the index changes only inside a write,
// concurrent readers are as safe as they are on the map itself.
type FactBase struct {
	facts map[string]Fact
	names []string // every key of facts, sorted
}

// NewFactBase returns an empty fact base.
func NewFactBase() *FactBase {
	return &FactBase{facts: make(map[string]Fact)}
}

// put stores a fact, indexing its name if it is new.
func (fb *FactBase) put(f Fact, isNew bool) {
	fb.facts[f.Name] = f
	if isNew {
		i, _ := slices.BinarySearch(fb.names, f.Name)
		fb.names = slices.Insert(fb.names, i, f.Name)
	}
}

// Add records a fact with a score and no timestamp. Re-adding a name
// keeps the higher score.
func (fb *FactBase) Add(name string, score float64) {
	old, ok := fb.facts[name]
	if ok && old.Score >= score {
		return
	}
	fb.put(Fact{Name: name, Score: score}, !ok)
}

// AddTimed records a fact with a score and timestamp. Re-adding keeps the
// earliest timestamp and the higher score.
func (fb *FactBase) AddTimed(name string, score float64, t simtime.Time) {
	old, ok := fb.facts[name]
	if ok {
		if old.HasT && old.T < t {
			t = old.T
		}
		if old.Score > score {
			score = old.Score
		}
	}
	fb.put(Fact{Name: name, Score: score, T: t, HasT: true}, !ok)
}

// span returns the index range that can hold a pattern's matches: the
// names that start with the pattern's literal segments, i.e. everything
// before its first "*" segment, without the colon that ends them. Leaving
// that colon out is what keeps the bare name in range — "a:b:*" matches
// "a:b" itself (a trailing "*" matches zero segments), which sorts before
// "a:b-x" and so outside the "a:b:" names. The range may also hold names
// that do not match ("a:b-x", "a:bc"); MatchPattern remains the matcher,
// the index only spares it the names that cannot match. A pattern that
// starts with a wildcard spans the whole index; one without a wildcard
// segment (a '*' inside a longer segment is a literal) can match only its
// own name.
func (fb *FactBase) span(pattern string) []string {
	prefix := pattern
	for at := 0; at <= len(pattern); {
		end := strings.IndexByte(pattern[at:], ':')
		if end < 0 {
			end = len(pattern)
		} else {
			end += at
		}
		if pattern[at:end] == "*" {
			prefix = pattern[:max(at-1, 0)]
			break
		}
		at = end + 1
	}
	lo, _ := slices.BinarySearch(fb.names, prefix)
	rest := fb.names[lo:]
	n := sort.Search(len(rest), func(i int) bool { return !strings.HasPrefix(rest[i], prefix) })
	return rest[:n]
}

// Match returns the facts whose names match the pattern, sorted by name.
// Patterns are colon-separated segments; a segment of "*" matches any
// single segment, and a trailing "*" segment matches any remaining
// segments.
func (fb *FactBase) Match(pattern string) []Fact {
	if literalPattern(pattern) {
		if f, ok := fb.facts[pattern]; ok {
			return []Fact{f}
		}
		return nil
	}
	var out []Fact
	for _, name := range fb.span(pattern) {
		if MatchPattern(pattern, name) {
			out = append(out, fb.facts[name])
		}
	}
	return out
}

// MaxScore returns the highest score among matching facts (0 if none).
// This is the innermost call of both symptom evaluation and the miner's
// background filter: it allocates nothing and looks up only the facts
// whose names match.
func (fb *FactBase) MaxScore(pattern string) float64 {
	if literalPattern(pattern) {
		return fb.facts[pattern].Score
	}
	var max float64
	for _, name := range fb.span(pattern) {
		if MatchPattern(pattern, name) {
			if s := fb.facts[name].Score; s > max {
				max = s
			}
		}
	}
	return max
}

// Exists reports whether any fact matches the pattern with score > 0.
func (fb *FactBase) Exists(pattern string) bool {
	if literalPattern(pattern) {
		return fb.facts[pattern].Score > 0
	}
	for _, name := range fb.span(pattern) {
		if MatchPattern(pattern, name) && fb.facts[name].Score > 0 {
			return true
		}
	}
	return false
}

// EarliestT returns the earliest timestamp among matching timed facts.
func (fb *FactBase) EarliestT(pattern string) (simtime.Time, bool) {
	if literalPattern(pattern) {
		f, ok := fb.facts[pattern]
		return f.T, ok && f.HasT
	}
	var best simtime.Time
	found := false
	for _, name := range fb.span(pattern) {
		if !MatchPattern(pattern, name) {
			continue
		}
		if f := fb.facts[name]; f.HasT && (!found || f.T < best) {
			best = f.T
			found = true
		}
	}
	return best, found
}

// All returns every fact sorted by name.
func (fb *FactBase) All() []Fact {
	out := make([]Fact, len(fb.names))
	for i, name := range fb.names {
		out[i] = fb.facts[name]
	}
	return out
}

// Len returns the number of facts.
func (fb *FactBase) Len() int { return len(fb.facts) }

// Fingerprint returns a stable digest of the fact base: two bases with
// the same facts (names, scores, timestamps) produce the same string.
// The concurrent diagnosis service keys cached symptoms-database
// evaluations by it, so re-diagnosing an identical window skips
// re-evaluating every entry, and the fleet orders its healthy corpus by
// it. Each fact is hashed as "name=score@t;hasT|" with the floats in
// %.9g form, in name order.
func (fb *FactBase) Fingerprint() string {
	h := fnv.New64a()
	var buf []byte
	for _, name := range fb.names {
		f := fb.facts[name]
		buf = append(buf[:0], name...)
		buf = append(buf, '=')
		buf = strconv.AppendFloat(buf, f.Score, 'g', 9, 64)
		buf = append(buf, '@')
		buf = strconv.AppendFloat(buf, float64(f.T), 'g', 9, 64)
		buf = append(buf, ';')
		buf = strconv.AppendBool(buf, f.HasT)
		buf = append(buf, '|')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(buf[:0]))
}

// String implements fmt.Stringer, listing facts one per line.
func (fb *FactBase) String() string {
	var b strings.Builder
	for _, f := range fb.All() {
		if f.HasT {
			fmt.Fprintf(&b, "%-45s score=%.3f t=%s\n", f.Name, f.Score, f.T.Clock())
		} else {
			fmt.Fprintf(&b, "%-45s score=%.3f\n", f.Name, f.Score)
		}
	}
	return b.String()
}

// literalPattern reports whether a pattern has no wildcard segment, in
// which case matching degenerates to string equality and fact lookup is
// a direct map access. (A '*' embedded in a longer segment is a literal
// character, not a wildcard, so the only false negatives here are
// patterns with a literal-'*' segment — they just take the general path.)
func literalPattern(pattern string) bool {
	return !strings.Contains(pattern, "*")
}

// MatchPattern reports whether a colon-segmented glob pattern matches a
// fact name. It walks both strings segment by segment without splitting,
// so the per-call cost is one pass and zero allocations — it sits inside
// every symptoms-database evaluation and miner background scan.
func MatchPattern(pattern, name string) bool {
	nameDone := false // name has no segments left
	for {
		pi := strings.IndexByte(pattern, ':')
		lastP := pi < 0
		var p string
		if lastP {
			p = pattern
		} else {
			p, pattern = pattern[:pi], pattern[pi+1:]
		}
		if p == "*" && lastP {
			return true // trailing * matches the rest (even empty)
		}
		if nameDone {
			return false
		}
		ni := strings.IndexByte(name, ':')
		var n string
		if ni < 0 {
			n, nameDone = name, true
		} else {
			n, name = name[:ni], name[ni+1:]
		}
		if p != "*" && p != n {
			return false
		}
		if lastP {
			return nameDone // both must run out of segments together
		}
	}
}
