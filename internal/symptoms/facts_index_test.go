package symptoms

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"diads/internal/simtime"
)

// refFacts is the fact base as it was before the name index: a bare map,
// every wildcard reader a scan of the whole map through MatchPattern, All
// and Fingerprint a sort. The indexed FactBase is held to it, so it must
// not share code with it (MatchPattern, the matcher both defer to, aside).
type refFacts map[string]Fact

func (r refFacts) add(name string, score float64) {
	if old, ok := r[name]; ok && old.Score >= score {
		return
	}
	r[name] = Fact{Name: name, Score: score}
}

func (r refFacts) addTimed(name string, score float64, t simtime.Time) {
	if old, ok := r[name]; ok {
		if old.HasT && old.T < t {
			t = old.T
		}
		if old.Score > score {
			score = old.Score
		}
	}
	r[name] = Fact{Name: name, Score: score, T: t, HasT: true}
}

func (r refFacts) match(pattern string) []Fact {
	var out []Fact
	for name, f := range r {
		if MatchPattern(pattern, name) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (r refFacts) maxScore(pattern string) float64 {
	var max float64
	for _, f := range r.match(pattern) {
		if f.Score > max {
			max = f.Score
		}
	}
	return max
}

func (r refFacts) exists(pattern string) bool {
	for _, f := range r.match(pattern) {
		if f.Score > 0 {
			return true
		}
	}
	return false
}

func (r refFacts) earliestT(pattern string) (simtime.Time, bool) {
	var best simtime.Time
	found := false
	for _, f := range r.match(pattern) {
		if f.HasT && (!found || f.T < best) {
			best, found = f.T, true
		}
	}
	return best, found
}

func (r refFacts) fingerprint() string {
	h := fnv.New64a()
	for _, f := range r.match("*") {
		fmt.Fprintf(h, "%s=%.9g@%.9g;%t|", f.Name, f.Score, float64(f.T), f.HasT)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkAgainst compares all five readers (and Len, Fingerprint) of the
// indexed base with the reference on one pattern.
func checkAgainst(t *testing.T, fb *FactBase, ref refFacts, pattern string) {
	t.Helper()
	want := ref.match(pattern)
	got := fb.Match(pattern)
	if len(got) != len(want) {
		t.Fatalf("Match(%q): %d facts %v, reference %d %v", pattern, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Match(%q)[%d] = %+v, reference %+v", pattern, i, got[i], want[i])
		}
	}
	if g, w := fb.MaxScore(pattern), ref.maxScore(pattern); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("MaxScore(%q) = %v, reference %v", pattern, g, w)
	}
	if g, w := fb.Exists(pattern), ref.exists(pattern); g != w {
		t.Fatalf("Exists(%q) = %v, reference %v", pattern, g, w)
	}
	gt, gok := fb.EarliestT(pattern)
	wt, wok := ref.earliestT(pattern)
	if gok != wok || (wok && gt != wt) {
		t.Fatalf("EarliestT(%q) = %v,%v, reference %v,%v", pattern, gt, gok, wt, wok)
	}
}

func checkWhole(t *testing.T, fb *FactBase, ref refFacts) {
	t.Helper()
	all, want := fb.All(), ref.match("*")
	if len(all) != len(want) || fb.Len() != len(want) {
		t.Fatalf("All: %d facts (Len %d), reference %d", len(all), fb.Len(), len(want))
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("All[%d] = %+v, reference %+v", i, all[i], want[i])
		}
	}
	if g, w := fb.Fingerprint(), ref.fingerprint(); g != w {
		t.Fatalf("Fingerprint = %s, reference %s", g, w)
	}
}

// TestFactIndexEdgeCases pins the matcher's corners on the index by name.
func TestFactIndexEdgeCases(t *testing.T) {
	fb, ref := NewFactBase(), refFacts{}
	for i, name := range []string{
		"a:b", "a:b-x", "a:b:c", "a:b:c:d", "a:bc", "a:b:", "a", "ab:c", "a:*:c", "a:x*:c", "a:xy:c", "", ":", "*", "z:b:c",
	} {
		fb.Add(name, float64(i+1)/100)
		ref.add(name, float64(i+1)/100)
	}
	// A trailing "*" matches zero remaining segments: the bare name, which
	// sorts before "a:b-x" and so outside the "a:b:" names.
	if got := fb.Match("a:b:*"); len(got) != 4 || got[0].Name != "a:b" || got[1].Name != "a:b:" {
		t.Fatalf(`Match("a:b:*") = %v, want a:b, a:b:, a:b:c, a:b:c:d`, got)
	}
	// A '*' embedded in a longer segment is a literal, not a wildcard.
	if got := fb.Match("a:x*:c"); len(got) != 1 || got[0].Name != "a:x*:c" {
		t.Fatalf(`Match("a:x*:c") = %v, want the literal name only`, got)
	}
	// A leading "*" scans everything.
	if got := fb.Match("*:b:c"); len(got) != 2 || got[0].Name != "a:b:c" || got[1].Name != "z:b:c" {
		t.Fatalf(`Match("*:b:c") = %v, want a:b:c and z:b:c`, got)
	}
	for _, pattern := range []string{
		"a:b:*", "a:b", "a:*", "a:*:c", "a:*:*", "*", "*:b:c", "*:*", "a:x*:c", "a:b*", "a:b:c:*", ":*", "", ":", "a:b::*", "q:*", "a:*:c:*",
	} {
		checkAgainst(t, fb, ref, pattern)
	}
	checkWhole(t, fb, ref)

	// A write after a read is visible to the next read.
	fb.AddTimed("a:b:0", 1, 7)
	ref.addTimed("a:b:0", 1, 7)
	if got := fb.Match("a:b:*"); len(got) != 5 || got[2].Name != "a:b:0" {
		t.Fatalf(`after AddTimed, Match("a:b:*") = %v`, got)
	}
	if ts, ok := fb.EarliestT("a:*"); !ok || ts != 7 {
		t.Fatalf(`after AddTimed, EarliestT("a:*") = %v,%v`, ts, ok)
	}
	checkWhole(t, fb, ref)
}

// TestFactIndexProperty drives the fact base and the map-scan reference
// with the same random adds — interleaved with reads — over a small
// alphabet of segments (so prefixes, bare names and near-misses collide
// constantly) and compares every reader on random patterns with the
// wildcard first, in the middle, last, doubled, or embedded. Every name
// is re-added often, timed after untimed and untimed after timed. A base
// built in bulk from the same calls by a FactBuilder, as diag.BuildFacts
// builds one, must answer every reader as the sequentially built base
// does.
func TestFactIndexProperty(t *testing.T) {
	segs := []string{"a", "b", "ab", "b-x", "a*", "*b", "", "vol-V1", "vol-V10", "c"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		name := func(wild bool) string {
			n := 1 + rng.Intn(4)
			out := ""
			for i := 0; i < n; i++ {
				if i > 0 {
					out += ":"
				}
				if wild && rng.Intn(3) == 0 {
					out += "*"
				} else {
					out += segs[rng.Intn(len(segs))]
				}
			}
			return out
		}
		fb, ref := NewFactBase(), refFacts{}
		var calls []Fact // in call order: HasT marks AddTimed
		for step := 0; step < 300; step++ {
			n, score := name(false), float64(rng.Intn(5))/4
			if len(calls) > 0 && rng.Intn(3) == 0 {
				n = calls[rng.Intn(len(calls))].Name // a repeat, of either kind
			}
			if rng.Intn(3) == 0 {
				ts := simtime.Time(rng.Intn(50))
				fb.AddTimed(n, score, ts)
				ref.addTimed(n, score, ts)
				calls = append(calls, Fact{Name: n, Score: score, T: ts, HasT: true})
			} else {
				fb.Add(n, score)
				ref.add(n, score)
				calls = append(calls, Fact{Name: n, Score: score})
			}
			for i := 0; i < 4; i++ {
				checkAgainst(t, fb, ref, name(true))
			}
			if step%25 == 0 {
				checkWhole(t, fb, ref)
			}
		}
		checkWhole(t, fb, ref)

		// The same calls through a FactBuilder sized too small (so its
		// name buffer is outgrown), each name written in two parts.
		b := NewFactBuilder(len(calls) / 8)
		for _, c := range calls {
			cut := rng.Intn(len(c.Name) + 1)
			if c.HasT {
				b.AddTimed(c.Score, c.T, c.Name[:cut], c.Name[cut:])
			} else {
				b.Add(c.Score, c.Name[:cut], c.Name[cut:])
			}
		}
		bulk := b.Build()
		checkWhole(t, bulk, ref)
		if g, w := bulk.Fingerprint(), fb.Fingerprint(); g != w {
			t.Fatalf("seed %d: bulk Fingerprint %s, sequential %s", seed, g, w)
		}
		for _, f := range fb.All() {
			parts := strings.Split(f.Name, ":")
			last := len(parts) - 1
			for _, pattern := range []string{
				"*:" + strings.Join(parts[1:], ":"),                   // wildcard first
				strings.Join(parts[:last], ":") + ":*:" + parts[last], // wildcard middle
				strings.Join(parts[:last], ":") + ":*",                // wildcard last
				f.Name,
			} {
				checkAgainst(t, bulk, ref, pattern)
				checkAgainst(t, fb, ref, pattern)
			}
		}
		for i := 0; i < 200; i++ {
			checkAgainst(t, bulk, ref, name(true))
		}
	}

	// Call orders that stress Build's merge of ascending runs: every call
	// its own run, one long run of a single name, and names that recur
	// across runs of length 1, where the merge decides which of two calls
	// of one name folds first.
	rng := rand.New(rand.NewSource(99))
	var distinct []string
	for i := 0; i < 120; i++ {
		distinct = append(distinct, fmt.Sprintf("n:%03d", i))
	}
	descending, one, recurring := []Fact{}, []Fact{}, []Fact{}
	for i := len(distinct) - 1; i >= 0; i-- {
		descending = append(descending, Fact{Name: distinct[i], Score: rng.Float64(), T: simtime.Time(i), HasT: i%3 == 0})
	}
	for i := 0; i < 300; i++ {
		one = append(one, Fact{Name: "metric-anomaly:vol-V1:Total IOs", Score: float64(rng.Intn(5)) / 4, T: simtime.Time(rng.Intn(50)), HasT: i%2 == 0})
	}
	for i := 0; i < 300; i++ {
		recurring = append(recurring, Fact{Name: distinct[len(distinct)-1-i%7], Score: float64(rng.Intn(5)) / 4, T: simtime.Time(rng.Intn(50)), HasT: rng.Intn(2) == 0})
	}
	for _, calls := range [][]Fact{descending, one, recurring} {
		ref, b := refFacts{}, NewFactBuilder(len(calls))
		for _, c := range calls {
			if c.HasT {
				ref.addTimed(c.Name, c.Score, c.T)
				b.AddTimed(c.Score, c.T, c.Name)
			} else {
				ref.add(c.Name, c.Score)
				b.Add(c.Score, c.Name)
			}
		}
		bulk := b.Build()
		checkWhole(t, bulk, ref)
		for _, pattern := range []string{"*", "n:*", "metric-anomaly:*:*", "n:006", "n:119", "n:113"} {
			checkAgainst(t, bulk, ref, pattern)
		}
	}
}

// TestBuildKeepsNoScratch: Build returns a FactBuilder's call lists,
// run bounds and name buffer to a pool, and the next builder writes over
// them. The base it returned must hold none of that scratch: one record
// per fact and one per timed fact, in a slice of exactly that length, and
// its names back to back in a string of exactly their total length.
// Builders sent through the pool afterwards, with other names of the same
// lengths, must leave it as it was.
func TestBuildKeepsNoScratch(t *testing.T) {
	if size := unsafe.Sizeof(rec{}); size > 16 {
		t.Fatalf("a fact record takes %d bytes, want at most 16", size)
	}
	b := NewFactBuilder(4)
	b.Add(0.9, "metric-anomaly:", "vol-V1", ":writeTime")
	b.AddTimed(1, 7, "event:VolumeCreated:", "vol-V3")
	b.Add(0.4, "cos-leaf-frac:", "vol-V1")
	b.Add(0.2, "cos-leaf-frac:vol-V1") // folds into the call before
	fb := b.Build()

	if fb.Len() != 3 || len(fb.recs) != 4 || cap(fb.recs) != 4 {
		t.Fatalf("%d facts in %d records of capacity %d, want 3 facts, 3 records and 1 time", fb.Len(), len(fb.recs), cap(fb.recs))
	}
	want, size := fb.All(), 0
	for i := range want {
		want[i].Name = strings.Clone(want[i].Name)
		size += len(want[i].Name)
	}
	if len(fb.names) != size || fb.recs[fb.n-1].end != uint32(size) {
		t.Fatalf("names take %d bytes and the last ends at %d, want the %d they hold", len(fb.names), fb.recs[fb.n-1].end, size)
	}
	names := strings.Clone(fb.names)
	fp := fb.Fingerprint()

	for round := 0; round < 8; round++ {
		other := NewFactBuilder(4)
		other.Add(0.1, "metric-anomaly:", "vol-V2", ":readTime_")
		other.AddTimed(2, 3, "event:VolumeDeleted:", "vol-V9")
		other.Add(0.8, "cos-leaf-frac:", "vol-V7")
		other.Add(0.3, "cos-leaf-frac:vol-V8")
		other.Build()
		if got := fb.All(); !slices.Equal(got, want) || fb.names != names {
			t.Fatalf("round %d: the first base reads %v, built as %v", round, got, want)
		}
		if got := fb.Fingerprint(); got != fp {
			t.Fatalf("round %d: Fingerprint %s, built as %s", round, got, fp)
		}
	}
}

// TestFactBaseConcurrentReaders reads one fact base from several
// goroutines at once, as the registry, miner, validator and console do
// once a diagnosis has published it. Run under -race: the index must not
// be built or touched by a read.
func TestFactBaseConcurrentReaders(t *testing.T) {
	fb := NewFactBase()
	for i := 0; i < 200; i++ {
		fb.AddTimed(fmt.Sprintf("metric-anomaly:vol-V%d:m%d", i%7, i), float64(i%10)/10, simtime.Time(i))
	}
	want := fb.Fingerprint()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if fb.MaxScore("metric-anomaly:vol-V3:*") != 0.9 || !fb.Exists("metric-anomaly:*") ||
					len(fb.Match("*:vol-V1:*")) == 0 || len(fb.All()) != 200 || fb.Fingerprint() != want {
					t.Error("concurrent readers disagree with the single-threaded answers")
					return
				}
				if ts, ok := fb.EarliestT("metric-anomaly:vol-V2:*"); !ok || ts != 2 {
					t.Errorf("EarliestT = %v,%v, want 2,true", ts, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFingerprintMatchesFmtForm pins the digest bytes: the strconv walk
// of the index must hash exactly what the fmt form
// "%s=%.9g@%.9g;%t|" over sorted facts hashed, because the SD cache keys
// on it and fleet reports order their healthy corpus by it.
func TestFingerprintMatchesFmtForm(t *testing.T) {
	scores := []float64{0, 1, 0.5, 1e-7, 1e21, 123456789.123, 0.1 + 0.2, 1.0 / 3,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 4, math.MaxFloat64, 1e-5, 99999.99995, 1e9, 1e8}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		scores = append(scores, rng.Float64(), rng.ExpFloat64()*1e6, math.Float64frombits(rng.Uint64()&^(0x7ff<<52)))
	}
	fb, ref := NewFactBase(), refFacts{}
	if g, w := fb.Fingerprint(), ref.fingerprint(); g != w {
		t.Fatalf("empty base: Fingerprint = %s, fmt form %s", g, w)
	}
	for i, s := range scores {
		name := fmt.Sprintf("fact:%d:%s", i%9, "Blocks Read"[:i%11])
		if i%2 == 0 {
			ts := simtime.Time(scores[(i*7)%len(scores)])
			fb.AddTimed(name, s, ts)
			ref.addTimed(name, s, ts)
		} else {
			fb.Add(name, s)
			ref.add(name, s)
		}
		if g, w := fb.Fingerprint(), ref.fingerprint(); g != w {
			t.Fatalf("after %d facts: Fingerprint = %s, fmt form %s", i+1, g, w)
		}
	}
}

// TestSubstituteOrderAndAllocs: keys apply longest first, ties
// lexicographically, for any number of bindings — and the common one- and
// two-variable bindings order their keys without allocating.
func TestSubstituteOrderAndAllocs(t *testing.T) {
	bind := map[string]string{"$V": "vol-V1", "$VOL": "whole", "$P": "pool-$V", "$A": "$P", "$POOL": "p", "$Q": "q", "$VO": "vo"}
	// $POOL, $VOL (4) then $VO (3) then $A, $P, $Q, $V (2): "$P" becomes
	// "pool-$V" before "$V" applies, and "$A" becomes "$P" before "$P".
	if got, want := substitute("x:$VOL:$VO:$V:$P:$A:$POOL", bind), "x:whole:vo:vol-V1:pool-vol-V1:pool-vol-V1:p"; got != want {
		t.Fatalf("substitute = %q, want %q", got, want)
	}
	two := map[string]string{"$V": "vol-V1", "$P": "pool-P1"}
	var sink string
	allocs := testing.AllocsPerRun(200, func() {
		sink = substitute("metric-anomaly:$V:*", two)
	})
	if sink != "metric-anomaly:vol-V1:*" {
		t.Fatalf("substitute = %q", sink)
	}
	if allocs > 1 { // the substituted string itself
		t.Fatalf("substitute allocates %.0f times per call, want only the result string", allocs)
	}
}
