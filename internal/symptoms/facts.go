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
// It keeps the facts sorted by name, no two sharing a name, in two
// pieces of storage of exactly their size: one string of every name back
// to back, and one 16-byte record per fact (its score, where its name
// ends, and where its time is, if it has one). The few timed facts keep
// their times in records after the facts' own. A literal lookup is a
// binary search; a wildcard probe reads only the range of names that
// share the pattern's literal prefix, and All and Fingerprint walk the
// records in order. Fact bases outlive their diagnosis and are read
// concurrently (service registry, fleet miner and validator, console); a
// read changes nothing, so concurrent readers are safe once the last
// write is done.
type FactBase struct {
	names string
	recs  []rec // the n facts' records, then one per timed fact
	n     int
}

// rec is one fact without its name, or, past a base's facts, one time.
type rec struct {
	score float64 // a time record's time
	end   uint32  // where the fact's name ends in names
	t     uint32  // the index of the fact's time record; 0 for no time
}

// NewFactBase returns an empty fact base.
func NewFactBase() *FactBase { return &FactBase{} }

// FactBuilder builds a fact base from a sequence of Add and AddTimed
// calls in one pass. It appends every name to one byte buffer, records
// each call with its name's offsets into it, and keeps the calls in
// order; Build sorts them by merging the ascending runs they arrive in,
// folds each name's calls exactly as the sequential calls on a FactBase
// would, and copies the surviving facts and their names into storage of
// exactly their size, which is all the built base keeps. The rest is
// scratch: builders come from a pool, and Build returns its scratch
// there.
type FactBuilder struct {
	names []byte
	calls []call // in call order until Build sorts them
	tmp   []call // the merge's second buffer
	runs  []int  // where each ascending run of calls ends
}

// call is one recorded Add or AddTimed, its name names[from:to].
type call struct {
	from, to int32
	score    float64
	t        simtime.Time
	timed    bool // AddTimed
}

// then applies c, a later call of the same name, to the fact x holds:
// Add keeps the higher score and records no timestamp; AddTimed keeps
// the earliest timestamp and the higher score. A call alone is the fact
// it makes.
func (x *call) then(c call) {
	switch {
	case c.timed:
		if !(x.timed && x.t < c.t) {
			x.t = c.t
		}
		if !(x.score > c.score) {
			x.score = c.score
		}
		x.timed = true
	case !AddKeeps(x.score, c.score):
		x.score, x.t, x.timed = c.score, 0, false
	}
}

// builders recycles FactBuilder scratch across fact bases.
var builders = sync.Pool{New: func() any { return new(FactBuilder) }}

// avgFactName is the mean fact-name length in bytes, rounded up, over the
// nine batch scenarios ("metric-anomaly:vol-V1:Total IOs" is 31).
const avgFactName = 32

// NewFactBuilder returns a builder with room for about n calls.
func NewFactBuilder(n int) *FactBuilder {
	b := builders.Get().(*FactBuilder)
	b.calls = slices.Grow(b.calls[:0], n)
	b.tmp = slices.Grow(b.tmp[:0], n) // Build may swap the two
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

// compare orders two calls by name.
func (b *FactBuilder) compare(x, y call) int { return bytes.Compare(b.name(x), b.name(y)) }

// sorted returns the calls ordered by name, each name's calls in call
// order, as a stable sort orders them. A diagnosis's calls arrive in a
// few ascending runs (14 to 20 of them), so it finds the runs and merges
// neighbours pairwise, the left run's call first on a tie, until one run
// is left.
func (b *FactBuilder) sorted() []call {
	src := b.calls
	runs := b.runs[:0]
	for i := 1; i < len(src); i++ {
		if b.compare(src[i-1], src[i]) > 0 {
			runs = append(runs, i)
		}
	}
	runs = append(runs, len(src))
	dst := slices.Grow(b.tmp[:0], len(src))[:len(src)]
	for len(runs) > 1 {
		lo, merged := 0, runs[:0]
		for k := 0; k < len(runs); k += 2 {
			hi := runs[k]
			if k+1 < len(runs) {
				hi = runs[k+1]
				b.merge(dst[lo:hi], src[lo:runs[k]], src[runs[k]:hi])
			} else {
				copy(dst[lo:hi], src[lo:hi])
			}
			merged = append(merged, hi)
			lo = hi
		}
		runs = merged
		src, dst = dst, src
	}
	b.calls, b.tmp, b.runs = src, dst, runs
	return src
}

// merge merges the sorted runs x and y into dst, taking x's call on a
// tie.
func (b *FactBuilder) merge(dst, x, y []call) {
	i, j := 0, 0
	for k := range dst {
		if j == len(y) || i < len(x) && b.compare(x[i], y[j]) <= 0 {
			dst[k] = x[i]
			i++
		} else {
			dst[k] = y[j]
			j++
		}
	}
}

// Build returns the fact base the recorded calls build, and returns the
// builder's scratch to the pool: the builder must not be used
// afterwards.
func (b *FactBuilder) Build() *FactBase {
	calls := b.sorted()
	folded, size, timed := calls[:0], 0, 0
	for _, c := range calls {
		if n := len(folded); n > 0 && bytes.Equal(b.name(folded[n-1]), b.name(c)) {
			folded[n-1].then(c)
			continue
		}
		folded = append(folded, c)
		size += len(b.name(c))
	}
	var kept strings.Builder
	kept.Grow(size)
	for _, c := range folded {
		kept.Write(b.name(c))
		if c.timed {
			timed++
		}
	}
	n := len(folded)
	recs, end, t := make([]rec, n+timed), 0, n
	for i, c := range folded {
		end += int(c.to - c.from)
		recs[i] = rec{score: c.score, end: uint32(end)}
		if c.timed {
			recs[i].t, recs[t].score = uint32(t), float64(c.t)
			t++
		}
	}
	builders.Put(b)
	return &FactBase{names: kept.String(), recs: recs, n: n}
}

// AddKeeps reports whether Add, re-adding a name with score, leaves the
// fact that holds old as it is: old is at least score. A NaN on either
// side fails the comparison, so the later score wins. A caller that folds
// several Adds of one name into one applies it call by call, in order.
func AddKeeps(old, score float64) bool { return old >= score }

// add applies one call by building the base again from its facts and
// the call. Only hand-built bases grow call by call; a diagnosis builds
// its base once through a FactBuilder.
func (fb *FactBase) add(name string, c call) {
	b := NewFactBuilder(fb.n + 1)
	for i := range fb.n {
		f := fb.fact(i)
		b.record(call{score: f.Score, t: f.T, timed: f.HasT}, []string{f.Name})
	}
	b.record(c, []string{name})
	*fb = *b.Build()
}

// Add records a fact with a score and no timestamp. Re-adding a name
// keeps the higher score.
func (fb *FactBase) Add(name string, score float64) {
	fb.add(name, call{score: score})
}

// AddTimed records a fact with a score and timestamp. Re-adding keeps the
// earliest timestamp and the higher score.
func (fb *FactBase) AddTimed(name string, score float64, t simtime.Time) {
	fb.add(name, call{score: score, t: t, timed: true})
}

// name returns fact i's name.
func (fb *FactBase) name(i int) string {
	var start uint32
	if i > 0 {
		start = fb.recs[i-1].end
	}
	return fb.names[start:fb.recs[i].end]
}

// time returns fact i's timestamp, if it has one.
func (fb *FactBase) time(i int) (simtime.Time, bool) {
	if t := fb.recs[i].t; t != 0 {
		return simtime.Time(fb.recs[t].score), true
	}
	return 0, false
}

// fact returns fact i.
func (fb *FactBase) fact(i int) Fact {
	f := Fact{Name: fb.name(i), Score: fb.recs[i].score}
	f.T, f.HasT = fb.time(i)
	return f
}

// find returns the index of the fact named name, or where it would go.
func (fb *FactBase) find(name string) (int, bool) {
	i := sort.Search(fb.n, func(i int) bool { return fb.name(i) >= name })
	return i, i < fb.n && fb.name(i) == name
}

// lookup returns the fact named name, if there is one.
func (fb *FactBase) lookup(name string) (Fact, bool) {
	if i, ok := fb.find(name); ok {
		return fb.fact(i), true
	}
	return Fact{}, false
}

// span returns the indexes [lo, hi) of the facts that can match a
// pattern: those whose names start with the pattern's literal segments,
// i.e. everything before its first "*" segment, without the colon that
// ends them. Leaving that colon out is what keeps the bare name in range
// — "a:b:*" matches "a:b" itself (a trailing "*" matches zero segments),
// which sorts before "a:b-x" and so outside the "a:b:" names. The range
// may also hold names that do not match ("a:b-x", "a:bc"); MatchPattern
// remains the matcher, the range only spares it the names that cannot
// match. A pattern that starts with a wildcard spans every fact.
func (fb *FactBase) span(pattern string) (lo, hi int) {
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
	lo, _ = fb.find(prefix)
	hi = lo + sort.Search(fb.n-lo, func(i int) bool { return !strings.HasPrefix(fb.name(lo+i), prefix) })
	return lo, hi
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
	lo, hi := fb.span(pattern)
	for i := lo; i < hi; i++ {
		if MatchPattern(pattern, fb.name(i)) {
			out = append(out, fb.fact(i))
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
		if i, ok := fb.find(pattern); ok {
			return fb.recs[i].score
		}
		return 0
	}
	var max float64
	lo, hi := fb.span(pattern)
	for i := lo; i < hi; i++ {
		if s := fb.recs[i].score; s > max && MatchPattern(pattern, fb.name(i)) {
			max = s
		}
	}
	return max
}

// Exists reports whether any fact matches the pattern with score > 0.
func (fb *FactBase) Exists(pattern string) bool {
	if literalPattern(pattern) {
		i, ok := fb.find(pattern)
		return ok && fb.recs[i].score > 0
	}
	lo, hi := fb.span(pattern)
	for i := lo; i < hi; i++ {
		if fb.recs[i].score > 0 && MatchPattern(pattern, fb.name(i)) {
			return true
		}
	}
	return false
}

// EarliestT returns the earliest timestamp among matching timed facts.
func (fb *FactBase) EarliestT(pattern string) (simtime.Time, bool) {
	if literalPattern(pattern) {
		if i, ok := fb.find(pattern); ok {
			return fb.time(i)
		}
		return 0, false
	}
	var best simtime.Time
	found := false
	lo, hi := fb.span(pattern)
	for i := lo; i < hi; i++ {
		if t, ok := fb.time(i); ok && (!found || t < best) && MatchPattern(pattern, fb.name(i)) {
			best = t
			found = true
		}
	}
	return best, found
}

// All returns every fact sorted by name.
func (fb *FactBase) All() []Fact {
	out := make([]Fact, fb.n)
	for i := range out {
		out[i] = fb.fact(i)
	}
	return out
}

// Len returns the number of facts.
func (fb *FactBase) Len() int { return fb.n }

// Fingerprint returns a stable digest of the fact base: two bases with
// the same facts (names, scores, timestamps) produce the same string.
// A caller-owned symptoms-evaluation cache (diag.Input.SDCache) keys on
// it, and the fleet orders its healthy corpus by it. Each fact is hashed as "name=score@t;hasT|" with the floats in
// %.9g form, in name order.
func (fb *FactBase) Fingerprint() string {
	h := fnv.New64a()
	var buf []byte
	for i := range fb.n {
		f := fb.fact(i)
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
