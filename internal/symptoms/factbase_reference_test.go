package symptoms_test

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"diads/internal/diag"
	"diads/internal/experiments"
	"diads/internal/simtime"
	"diads/internal/symptoms"
)

// refBase is the fact base as it was before its records were packed:
// one slice of Fact values sorted by name, each Add or AddTimed folded
// into its name's fact in place or inserted as a new one. The packed base
// is held to it.
type refBase struct{ facts []symptoms.Fact }

func (r *refBase) add(f symptoms.Fact) {
	i, ok := r.find(f.Name)
	if !ok {
		if !f.HasT {
			f.T = 0
		}
		r.facts = slices.Insert(r.facts, i, f)
		return
	}
	old := &r.facts[i]
	if !f.HasT {
		if !(old.Score >= f.Score) {
			*old = symptoms.Fact{Name: old.Name, Score: f.Score}
		}
		return
	}
	if old.HasT && old.T < f.T {
		f.T = old.T
	}
	if old.Score > f.Score {
		f.Score = old.Score
	}
	*old = symptoms.Fact{Name: old.Name, Score: f.Score, T: f.T, HasT: true}
}

func (r *refBase) find(name string) (int, bool) {
	return slices.BinarySearchFunc(r.facts, name, func(f symptoms.Fact, name string) int { return strings.Compare(f.Name, name) })
}

func (r *refBase) lookup(name string) (symptoms.Fact, bool) {
	if i, ok := r.find(name); ok {
		return r.facts[i], true
	}
	return symptoms.Fact{}, false
}

func (r *refBase) span(pattern string) []symptoms.Fact {
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
	lo, _ := r.find(prefix)
	rest := r.facts[lo:]
	n := sort.Search(len(rest), func(i int) bool { return !strings.HasPrefix(rest[i].Name, prefix) })
	return rest[:n]
}

func literal(pattern string) bool { return !strings.Contains(pattern, "*") }

func (r *refBase) Match(pattern string) []symptoms.Fact {
	if literal(pattern) {
		if f, ok := r.lookup(pattern); ok {
			return []symptoms.Fact{f}
		}
		return nil
	}
	var out []symptoms.Fact
	for _, f := range r.span(pattern) {
		if symptoms.MatchPattern(pattern, f.Name) {
			out = append(out, f)
		}
	}
	return out
}

func (r *refBase) MaxScore(pattern string) float64 {
	if literal(pattern) {
		f, _ := r.lookup(pattern)
		return f.Score
	}
	var max float64
	for _, f := range r.span(pattern) {
		if f.Score > max && symptoms.MatchPattern(pattern, f.Name) {
			max = f.Score
		}
	}
	return max
}

func (r *refBase) Exists(pattern string) bool {
	if literal(pattern) {
		f, _ := r.lookup(pattern)
		return f.Score > 0
	}
	for _, f := range r.span(pattern) {
		if f.Score > 0 && symptoms.MatchPattern(pattern, f.Name) {
			return true
		}
	}
	return false
}

func (r *refBase) EarliestT(pattern string) (simtime.Time, bool) {
	if literal(pattern) {
		f, ok := r.lookup(pattern)
		return f.T, ok && f.HasT
	}
	var best simtime.Time
	found := false
	for _, f := range r.span(pattern) {
		if f.HasT && (!found || f.T < best) && symptoms.MatchPattern(pattern, f.Name) {
			best, found = f.T, true
		}
	}
	return best, found
}

func (r *refBase) Fingerprint() string {
	h := fnv.New64a()
	var buf []byte
	for _, f := range r.facts {
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

func (r *refBase) String() string {
	var b strings.Builder
	for _, f := range r.facts {
		if f.HasT {
			fmt.Fprintf(&b, "%-45s score=%.3f t=%s\n", f.Name, f.Score, f.T.Clock())
		} else {
			fmt.Fprintf(&b, "%-45s score=%.3f\n", f.Name, f.Score)
		}
	}
	return b.String()
}

// sameAsReference compares every reader of fb with the reference: All,
// Len, String and Fingerprint whole, and Match, MaxScore, Exists and
// EarliestT on each pattern.
func sameAsReference(t *testing.T, what string, fb *symptoms.FactBase, ref *refBase, patterns []string) {
	t.Helper()
	if got := fb.All(); !slices.Equal(got, ref.facts) || fb.Len() != len(ref.facts) {
		t.Fatalf("%s: All = %v (Len %d), reference %v", what, got, fb.Len(), ref.facts)
	}
	if g, w := fb.String(), ref.String(); g != w {
		t.Fatalf("%s: String\n%s\nreference\n%s", what, g, w)
	}
	if g, w := fb.Fingerprint(), ref.Fingerprint(); g != w {
		t.Fatalf("%s: Fingerprint %s, reference %s", what, g, w)
	}
	for _, p := range patterns {
		if g, w := fb.Match(p), ref.Match(p); !slices.Equal(g, w) {
			t.Fatalf("%s: Match(%q) = %v, reference %v", what, p, g, w)
		}
		if g, w := fb.MaxScore(p), ref.MaxScore(p); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: MaxScore(%q) = %v, reference %v", what, p, g, w)
		}
		if g, w := fb.Exists(p), ref.Exists(p); g != w {
			t.Fatalf("%s: Exists(%q) = %v, reference %v", what, p, g, w)
		}
		gt, gok := fb.EarliestT(p)
		wt, wok := ref.EarliestT(p)
		if gt != wt || gok != wok {
			t.Fatalf("%s: EarliestT(%q) = %v,%v, reference %v,%v", what, p, gt, gok, wt, wok)
		}
	}
}

// TestFactBaseMatchesLongWayReference diagnoses the nine scenarios at
// three seeds and holds each fact base to the reference holding the same
// facts, under every pattern of the built-in database substituted with
// every binding of the diagnosis. It then replays the base's facts as
// calls, shuffled and with a second call for a third of the names, into
// a FactBuilder and into the reference, and compares those too.
func TestFactBaseMatchesLongWayReference(t *testing.T) {
	db := symptoms.Builtin()
	compared := 0
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		for id := experiments.S1SANMisconfig; id <= experiments.SRAIDRebuild; id++ {
			sc, err := experiments.Build(id, seed)
			if err != nil {
				t.Fatalf("scenario %d seed %d: %v", id, seed, err)
			}
			res, err := diag.Diagnose(sc.Input)
			if err != nil {
				t.Fatalf("scenario %d seed %d: %v", id, seed, err)
			}
			if res.Facts == nil || res.APG == nil {
				continue // a plan change: no drill-down, no fact base
			}
			var patterns []string
			for _, b := range diag.Bindings(sc.Input, res.APG) {
				for _, e := range db.Entries() {
					for _, c := range e.Conditions {
						for _, p := range symptoms.Patterns(c.Expr) {
							patterns = append(patterns, symptoms.Substitute(p, b.Vars))
						}
					}
				}
			}
			slices.Sort(patterns)
			patterns = slices.Compact(patterns)

			all := res.Facts.All()
			ref := &refBase{}
			for i := len(all) - 1; i >= 0; i-- {
				ref.add(all[i])
			}
			what := fmt.Sprintf("scenario %d seed %d", id, seed)
			sameAsReference(t, what, res.Facts, ref, patterns)

			calls := slices.Clone(all)
			for _, f := range all {
				if rng.Intn(3) == 0 {
					calls = append(calls, symptoms.Fact{Name: f.Name, Score: rng.Float64(), T: simtime.Time(rng.Intn(1e5)), HasT: rng.Intn(2) == 0})
				}
			}
			rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
			b, replayed := symptoms.NewFactBuilder(len(calls)), &refBase{}
			for _, c := range calls {
				replayed.add(c)
				if c.HasT {
					b.AddTimed(c.Score, c.T, c.Name)
				} else {
					b.Add(c.Score, c.Name)
				}
			}
			sameAsReference(t, what+" replayed", b.Build(), replayed, patterns)
			compared++
		}
	}
	t.Logf("%d fact bases compared", compared)
	if compared == 0 {
		t.Fatal("no scenario built a fact base; the comparison was vacuous")
	}
}
