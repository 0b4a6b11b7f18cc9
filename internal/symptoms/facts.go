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
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

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
// It is one slice of facts sorted by name, with no two facts sharing a
// name. A literal lookup is a binary search; a wildcard probe reads only
// the range of names that share the pattern's literal prefix, and All and
// Fingerprint walk the slice in order. Fact bases outlive their diagnosis
// and are read concurrently (service registry, fleet miner and validator,
// console); a read changes nothing, so concurrent readers are safe once
// the last write is done.
type FactBase struct {
	facts []Fact
}

// NewFactBase returns an empty fact base.
func NewFactBase() *FactBase { return &FactBase{} }

// FactBuilder builds a fact base from a sequence of Add and AddTimed
// calls in one pass. It appends every name to one byte buffer, records
// each call with its name's offsets into it, and keeps the calls in
// order; Build sorts them, folds each name's calls exactly as the
// sequential calls on a FactBase would, and copies the surviving facts
// and their names into storage of exactly their size, which is all the
// built base keeps. The call list and the name buffer are scratch:
// builders come from a pool, and Build returns its scratch there.
type FactBuilder struct {
	names []byte
	calls []call // in call order
}

// call is one recorded Add or AddTimed, its name names[from:to].
type call struct {
	from, to int32
	score    float64
	t        simtime.Time
	timed    bool // AddTimed
}

// fact returns the call as the Fact fold applies, without its name.
func (c call) fact() Fact { return Fact{Score: c.score, T: c.t, HasT: c.timed} }

// set makes the call record f, keeping its name.
func (c *call) set(f Fact) { c.score, c.t, c.timed = f.Score, f.T, f.HasT }

// builders recycles FactBuilder scratch across fact bases.
var builders = sync.Pool{New: func() any { return new(FactBuilder) }}

// avgFactName is the mean fact-name length in bytes, rounded up, over the
// nine batch scenarios ("metric-anomaly:vol-V1:Total IOs" is 31).
const avgFactName = 32

// NewFactBuilder returns a builder with room for about n calls.
func NewFactBuilder(n int) *FactBuilder {
	b := builders.Get().(*FactBuilder)
	b.calls = slices.Grow(b.calls[:0], n)
	b.names = slices.Grow(b.names[:0], n*avgFactName)
	return b
}

// Add records Add(name, score), the name being the concatenation of
// parts.
func (b *FactBuilder) Add(score float64, parts ...string) {
	b.record(call{score: score}, parts)
}

// AddTimed records AddTimed(name, score, t), the name being the
// concatenation of parts.
func (b *FactBuilder) AddTimed(score float64, t simtime.Time, parts ...string) {
	b.record(call{score: score, t: t, timed: true}, parts)
}

func (b *FactBuilder) record(c call, parts []string) {
	c.from = int32(len(b.names))
	for _, p := range parts {
		b.names = append(b.names, p...)
	}
	c.to = int32(len(b.names))
	b.calls = append(b.calls, c)
}

// name returns c's name in the builder's buffer.
func (b *FactBuilder) name(c call) []byte { return b.names[c.from:c.to] }

// Build returns the fact base the recorded calls build, and returns the
// builder's scratch to the pool: the builder must not be used
// afterwards.
func (b *FactBuilder) Build() *FactBase {
	calls := b.calls
	// A stable sort keeps each name's calls in call order, so folding a
	// run of one name applies them as the sequential calls would.
	slices.SortStableFunc(calls, func(x, y call) int { return bytes.Compare(b.name(x), b.name(y)) })
	folded, size := calls[:0], 0
	for _, c := range calls {
		if n := len(folded); n > 0 && bytes.Equal(b.name(folded[n-1]), b.name(c)) {
			folded[n-1].set(fold(folded[n-1].fact(), true, c.fact()))
			continue
		}
		c.set(fold(Fact{}, false, c.fact()))
		folded = append(folded, c)
		size += len(b.name(c))
	}
	var kept strings.Builder
	kept.Grow(size)
	for _, c := range folded {
		kept.Write(b.name(c))
	}
	facts := make([]Fact, len(folded))
	all, at := kept.String(), 0
	for i, c := range folded {
		f, n := c.fact(), int(c.to-c.from)
		f.Name = all[at : at+n]
		at += n
		facts[i] = f
	}
	builders.Put(b)
	return &FactBase{facts: facts}
}

// AddKeeps reports whether Add, re-adding a name with score, leaves the
// fact that holds old as it is: old is at least score. A NaN on either
// side fails the comparison, so the later score wins. A caller that folds
// several Adds of one name into one applies it call by call, in order.
func AddKeeps(old, score float64) bool { return old >= score }

// fold applies one call, Add(f.Name, f.Score) or, when f.HasT is set,
// AddTimed(f.Name, f.Score, f.T), to the fact old already stored under
// the name, if exists: Add keeps the higher score and records no
// timestamp; AddTimed keeps the earliest timestamp and the higher score.
// FactBase's methods and FactBuilder both fold through it.
func fold(old Fact, exists bool, f Fact) Fact {
	if !f.HasT {
		if exists && AddKeeps(old.Score, f.Score) {
			return old
		}
		return Fact{Name: f.Name, Score: f.Score}
	}
	if exists {
		if old.HasT && old.T < f.T {
			f.T = old.T
		}
		if old.Score > f.Score {
			f.Score = old.Score
		}
	}
	return f
}

// add applies one call, as fold describes, in place.
func (fb *FactBase) add(f Fact) {
	i, ok := fb.find(f.Name)
	if ok {
		fb.facts[i] = fold(fb.facts[i], true, f)
		return
	}
	fb.facts = slices.Insert(fb.facts, i, fold(Fact{}, false, f))
}

// find returns the index of the fact named name, or where it would go.
func (fb *FactBase) find(name string) (int, bool) {
	return slices.BinarySearchFunc(fb.facts, name, func(f Fact, name string) int { return strings.Compare(f.Name, name) })
}

// Add records a fact with a score and no timestamp. Re-adding a name
// keeps the higher score.
func (fb *FactBase) Add(name string, score float64) {
	fb.add(Fact{Name: name, Score: score})
}

// AddTimed records a fact with a score and timestamp. Re-adding keeps the
// earliest timestamp and the higher score.
func (fb *FactBase) AddTimed(name string, score float64, t simtime.Time) {
	fb.add(Fact{Name: name, Score: score, T: t, HasT: true})
}

// lookup returns the fact named name, if there is one.
func (fb *FactBase) lookup(name string) (Fact, bool) {
	if i, ok := fb.find(name); ok {
		return fb.facts[i], true
	}
	return Fact{}, false
}

// span returns the facts that can match a pattern: those whose names
// start with the pattern's literal segments, i.e. everything before its
// first "*" segment, without the colon that ends them. Leaving that colon
// out is what keeps the bare name in range — "a:b:*" matches "a:b" itself
// (a trailing "*" matches zero segments), which sorts before "a:b-x" and
// so outside the "a:b:" names. The range may also hold names that do not
// match ("a:b-x", "a:bc"); MatchPattern remains the matcher, the range
// only spares it the names that cannot match. A pattern that starts with
// a wildcard spans every fact.
func (fb *FactBase) span(pattern string) []Fact {
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
	lo, _ := fb.find(prefix)
	rest := fb.facts[lo:]
	n := sort.Search(len(rest), func(i int) bool { return !strings.HasPrefix(rest[i].Name, prefix) })
	return rest[:n]
}

// Match returns the facts whose names match the pattern, sorted by name.
// Patterns are colon-separated segments; a segment of "*" matches any
// single segment, and a trailing "*" segment matches any remaining
// segments.
func (fb *FactBase) Match(pattern string) []Fact {
	if literalPattern(pattern) {
		if f, ok := fb.lookup(pattern); ok {
			return []Fact{f}
		}
		return nil
	}
	var out []Fact
	for _, f := range fb.span(pattern) {
		if MatchPattern(pattern, f.Name) {
			out = append(out, f)
		}
	}
	return out
}

// MaxScore returns the highest score among matching facts (0 if none).
// This is the innermost call of both symptom evaluation and the miner's
// background filter: it allocates nothing and looks only at the facts in
// the pattern's span.
func (fb *FactBase) MaxScore(pattern string) float64 {
	if literalPattern(pattern) {
		f, _ := fb.lookup(pattern)
		return f.Score
	}
	var max float64
	for _, f := range fb.span(pattern) {
		if f.Score > max && MatchPattern(pattern, f.Name) {
			max = f.Score
		}
	}
	return max
}

// Exists reports whether any fact matches the pattern with score > 0.
func (fb *FactBase) Exists(pattern string) bool {
	if literalPattern(pattern) {
		f, _ := fb.lookup(pattern)
		return f.Score > 0
	}
	for _, f := range fb.span(pattern) {
		if f.Score > 0 && MatchPattern(pattern, f.Name) {
			return true
		}
	}
	return false
}

// EarliestT returns the earliest timestamp among matching timed facts.
func (fb *FactBase) EarliestT(pattern string) (simtime.Time, bool) {
	if literalPattern(pattern) {
		f, ok := fb.lookup(pattern)
		return f.T, ok && f.HasT
	}
	var best simtime.Time
	found := false
	for _, f := range fb.span(pattern) {
		if f.HasT && (!found || f.T < best) && MatchPattern(pattern, f.Name) {
			best = f.T
			found = true
		}
	}
	return best, found
}

// All returns every fact sorted by name.
func (fb *FactBase) All() []Fact { return slices.Clone(fb.facts) }

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
	for _, f := range fb.facts {
		buf = append(buf[:0], f.Name...)
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
// one binary search. (A '*' embedded in a longer segment is a literal
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
