package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"diads/internal/experiments"
	"diads/internal/telemetry"
)

// The scanner's contract is differential: whatever it accepts,
// decodeStrict accepts too, and the two structs are equal. These tests
// hold it to that on the committed seed corpus (testdata/fuzz: bodies
// of a simulated day, every TestIngestValidation body, and the shapes
// the scanner must decline), on every truncation of a canonical body,
// on whole simulated days, and on whatever the fuzzer invents.

const (
	sampleTarget = "FuzzDecodeSampleBatch"
	runTarget    = "FuzzDecodeRunBatch"
)

// seedBodies reads a fuzz target's committed seed corpus, file name →
// body. The files are in the go-fuzz corpus encoding: a version line,
// then one []byte("...") literal.
func seedBodies(t testing.TB, target string) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading seed corpus: %v", err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading seed: %v", err)
		}
		_, lit, _ := strings.Cut(string(data), "\n")
		lit = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lit), "[]byte("), ")")
		body, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("seed %s/%s: not a []byte literal: %v", target, e.Name(), err)
		}
		out[e.Name()] = []byte(body)
	}
	return out
}

// truncations returns body cut at every byte offset.
func truncations(body []byte) [][]byte {
	out := make([][]byte, 0, len(body))
	for i := range body {
		out = append(out, body[:i])
	}
	return out
}

// sameWire reports whether two decoded wire values are the same batch:
// floats by bit pattern, nil and empty slices alike, pointers by what
// they point to.
func sameWire(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameWire(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameWire(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameWire(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default: // string, int
		return a.Interface() == b.Interface()
	}
}

func newScanner() *scanner { return &scanner{names: make(internTable)} }

// accepted is the differential property for one body, scan being one of
// the scanner's two entry points reading into got; it reports whether
// scan accepted it.
func accepted[T any](t *testing.T, sc *scanner, scan func([]byte, *T) bool, body []byte, got *T) bool {
	t.Helper()
	var want T
	if !scan(body, got) {
		return false
	}
	if err := decodeStrict(body, &want); err != nil {
		t.Fatalf("scanner accepted a body encoding/json refuses (%v): %q", err, body)
	}
	if !sameWire(reflect.ValueOf(*got), reflect.ValueOf(want)) {
		t.Fatalf("scanner and encoding/json disagree on %q:\n scanner %+v\n json    %+v", body, *got, want)
	}
	if len(sc.names) > internCap {
		t.Fatalf("intern table holds %d names, cap %d", len(sc.names), internCap)
	}
	return true
}

// checkSamples scans into a recycled batch still holding another body's
// fields, its array long enough for some bodies and not for others:
// nothing of them may show, and an absent samples key must leave nil.
func checkSamples(t *testing.T, sc *scanner, body []byte) bool {
	t.Helper()
	stale := 1.5
	dirty := &SampleBatch{Tenant: "stale", Instance: "stale", Watermark: &stale, Samples: make([]WireSample, 2, 3)}
	dirty.Samples[0] = WireSample{Component: "stale", Metric: "stale", T: 1, V: 1}
	if !accepted(t, sc, sc.sampleBatch, body, dirty) {
		return false
	}
	var want SampleBatch
	if err := decodeStrict(body, &want); err != nil || (dirty.Samples == nil) != (want.Samples == nil) {
		t.Fatalf("Samples nil = %v, encoding/json leaves nil = %v (%v) on %q", dirty.Samples == nil, want.Samples == nil, err, body)
	}
	return true
}

func checkRuns(t *testing.T, sc *scanner, body []byte) bool {
	t.Helper()
	return accepted(t, sc, sc.runBatch, body, new(RunBatch))
}

func FuzzDecodeSampleBatch(f *testing.F) {
	for _, body := range truncations(seedBodies(f, sampleTarget)["valid-canonical"]) {
		f.Add(body)
	}
	sc := newScanner()
	f.Fuzz(func(t *testing.T, body []byte) { checkSamples(t, sc, body) })
}

func FuzzDecodeRunBatch(f *testing.F) {
	for _, body := range truncations(seedBodies(f, runTarget)["valid-canonical"]) {
		f.Add(body)
	}
	sc := newScanner()
	f.Fuzz(func(t *testing.T, body []byte) { checkRuns(t, sc, body) })
}

// TestScannerSeedCorpus pins which side of the line each committed seed
// falls on, by its file name: valid-*, validation-* (well-formed, the
// handler's checks refuse them later) and day-* bodies of the target's
// own shape take the fast path; decline-*, trailing-* and the rest must
// not — a scanner that declined everything would pass the differential
// property and lose the speed-up.
func TestScannerSeedCorpus(t *testing.T) {
	fast := func(name string) bool {
		for _, p := range []string{"valid-", "day-", "validation-no-", "validation-stop-"} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	sc := newScanner()
	for name, body := range seedBodies(t, sampleTarget) {
		if got := checkSamples(t, sc, body); got != fast(name) {
			t.Errorf("samples seed %s: scanner accepted = %v, want %v", name, got, fast(name))
		}
		checkRuns(t, sc, body)
	}
	for name, body := range seedBodies(t, runTarget) {
		if got := checkRuns(t, sc, body); got != fast(name) {
			t.Errorf("runs seed %s: scanner accepted = %v, want %v", name, got, fast(name))
		}
		checkSamples(t, sc, body)
	}
}

// TestScannerTakesSimulatedDay posts nothing: it marshals a whole
// simulated day the way an agent would and requires the scanner to
// accept every batch, equal to encoding/json's reading of it.
func TestScannerTakesSimulatedDay(t *testing.T) {
	env := simulateClient(t, experiments.OnlineSpec{Seed: testSeed, Runs: 16})
	sc := newScanner()
	samples := storeSamples(env.Testbed)
	for lo := 0; lo < len(samples); lo += 256 {
		hi := min(lo+256, len(samples))
		b := SampleBatch{Tenant: "acme", Instance: "db-1", Samples: samples[lo:hi]}
		if hi == len(samples) {
			b.Watermark = &samples[hi-1].T
		}
		body, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if !checkSamples(t, sc, body) {
			t.Fatalf("scanner declined the canonical sample batch [%d:%d]", lo, hi)
		}
	}
	for _, rec := range env.Testbed.Runs {
		body, err := json.Marshal(RunBatch{Tenant: "acme", Instance: "db-1", Runs: []WireRun{WireRunOf(rec)}})
		if err != nil {
			t.Fatal(err)
		}
		if !checkRuns(t, sc, body) {
			t.Fatalf("scanner declined the canonical run %s", rec.RunID)
		}
	}
}

// TestInternTableBounded feeds the table more unique names than it
// holds: it never exceeds its cap, never keeps an over-long name, and
// always returns the name it was given.
func TestInternTableBounded(t *testing.T) {
	tab := make(internTable)
	long := strings.Repeat("x", internMaxLen)
	for i := range 3*internCap + 7 {
		for _, name := range []string{
			"vol-" + strconv.Itoa(i),
			long + strconv.Itoa(i), // over internMaxLen
			"vol-" + strconv.Itoa(i/2),
		} {
			if got := tab.intern([]byte(name)); got != name {
				t.Fatalf("intern(%q) = %q", name, got)
			}
			if len(tab) > internCap {
				t.Fatalf("table holds %d names after %d, cap %d", len(tab), i, internCap)
			}
		}
	}
	for name := range tab {
		if len(name) > internMaxLen {
			t.Fatalf("table kept a %d-byte name", len(name))
		}
	}
}

// TestIngestHandlerParity drives the real handlers over the seed corpus
// and every truncation of the canonical bodies, on all three ingest
// routes, and requires status and body byte-identical to a reference
// that never runs the scanner: decodeStrict (encoding/json plus the
// trailing-data rule), then the handlers' own validation and replies.
// The posts come one at a time, so each accepted one was the only batch
// waiting to apply: its queue_depth is 1.
func TestIngestHandlerParity(t *testing.T) {
	type post struct {
		name string
		body []byte
	}
	var posts []post
	for _, target := range []string{sampleTarget, runTarget} {
		seeds := seedBodies(t, target)
		for name, body := range seeds {
			posts = append(posts, post{target + "/" + name, body})
		}
		for i, body := range truncations(seeds["valid-canonical"]) {
			posts = append(posts, post{fmt.Sprintf("%s/valid-canonical[:%d]", target, i), body})
		}
	}
	sort.Slice(posts, func(i, j int) bool { return posts[i].name < posts[j].name })

	routes := map[string]func() batch{
		"/v1/ingest/samples": func() batch { return new(SampleBatch) },
		"/v1/ingest/runs":    func() batch { return new(RunBatch) },
		"/v1/ingest/events":  func() batch { return new(EventBatch) },
	}
	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	h := node.Handler()

	accepted := 0
	for _, p := range posts {
		for route, newBatch := range routes {
			got := httptest.NewRecorder()
			h.ServeHTTP(got, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(p.body)))

			want := httptest.NewRecorder()
			b := newBatch()
			if usable(want, decodeStrict(p.body, b), b) {
				writeJSON(want, http.StatusAccepted, IngestReply{Accepted: b.size(), QueueDepth: 1})
			}
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Errorf("%s on %s:\n handler   %d %s reference %d %s",
					p.name, route, got.Code, got.Body, want.Code, want.Body)
			}
			if got.Code == http.StatusAccepted {
				accepted++
			}
		}
	}
	if accepted < 20 {
		t.Errorf("only %d corpus posts were accepted; the table is not exercising the 202 path", accepted)
	}
}

// TestAcceptedReplyBytes: the 202 body is byte for byte what writeJSON
// writes for IngestReply, trailing newline and header included.
func TestAcceptedReplyBytes(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 4096, math.MaxInt} {
		for _, depth := range []int{0, 1, 9, 10, 4096, math.MaxInt} {
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			writeAccepted(got, nil, n, depth)
			writeJSON(want, http.StatusAccepted, IngestReply{Accepted: n, QueueDepth: depth})
			if got.Code != want.Code || got.Body.String() != want.Body.String() ||
				!reflect.DeepEqual(got.Header(), want.Header()) {
				t.Errorf("accepted %d, depth %d: %d %q %v, want %d %q %v", n, depth,
					got.Code, got.Body, got.Header(), want.Code, want.Body, want.Header())
			}
		}
	}
}

// batch is what the reference needs of the three wire batches.
type batch interface {
	validate() error
	size() int
}

func (b *SampleBatch) size() int { return len(b.Samples) }
func (b *RunBatch) size() int    { return len(b.Runs) }
func (b *EventBatch) size() int  { return len(b.Events) }

// TestIngestBodyLimit pins the body bound on all three routes: a body of
// exactly maxIngestBody is read and judged on its content, one byte
// more is a counted 413 with the usual error reply.
func TestIngestBodyLimit(t *testing.T) {
	node := New(Config{Seed: testSeed})
	defer node.Shutdown()
	h := node.Handler()

	// Valid batches, padded with trailing whitespace (which is allowed).
	padded := func(batch string, size int) []byte {
		return append([]byte(batch), bytes.Repeat([]byte{' '}, size-len(batch))...)
	}
	for route, batch := range map[string]string{
		"/v1/ingest/samples": `{"tenant":"t","instance":"i","samples":[]}`,
		"/v1/ingest/runs":    `{"tenant":"t","instance":"i","runs":[]}`,
		"/v1/ingest/events":  `{"tenant":"t","instance":"i","events":[]}`,
	} {
		before := node.tel.rejected[reasonTooLarge].Value()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(padded(batch, maxIngestBody))))
		if rec.Code != http.StatusAccepted {
			t.Errorf("%s at the limit = %d %s, want 202", route, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(padded(batch, maxIngestBody+1))))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s one byte over = %d %s, want 413", route, rec.Code, rec.Body)
		}
		var reply ErrorReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Error == "" {
			t.Errorf("%s 413 body is not an ErrorReply: %s", route, rec.Body)
		}
		if got := node.tel.rejected[reasonTooLarge].Value() - before; got != 1 {
			t.Errorf("%s: too_large counter moved by %v, want 1", route, got)
		}
	}
	// The new series is part of a valid exposition.
	expo := telemetry.Default().Exposition()
	if err := telemetry.ValidateExposition(expo); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if !bytes.Contains(expo, []byte(`diads_api_ingest_rejected_total{reason="too_large"}`)) {
		t.Errorf("exposition missing the too_large rejection series")
	}
}

// TestOutOfOrderBatchSorted posts one interleaved, out-of-order batch
// and its time-sorted twin to two nodes: the stores must end identical,
// with nothing refused by the store's per-series ordering check.
func TestOutOfOrderBatchSorted(t *testing.T) {
	var sorted []WireSample
	for i := range 40 {
		for _, c := range []string{"vol-V1", "vol-V2", "srv-db"} {
			sorted = append(sorted, WireSample{Component: c, Metric: "writeTime", T: float64(300 * i), V: float64(i) + 0.25})
		}
	}
	shuffled := make([]WireSample, 0, len(sorted))
	for _, c := range []string{"srv-db", "vol-V2", "vol-V1"} { // series by series, each backwards
		for i := len(sorted) - 1; i >= 0; i-- {
			if sorted[i].Component == c {
				shuffled = append(shuffled, sorted[i])
			}
		}
	}

	stores := make([]map[string][]float64, 2)
	for n, samples := range [][]WireSample{sorted, shuffled} {
		node := New(Config{Seed: testSeed})
		body, err := json.Marshal(SampleBatch{Tenant: "t", Instance: "i", Samples: samples})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest/samples", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("post = %d %s", rec.Code, rec.Body)
		}
		if err := node.Quiesce(); err != nil {
			t.Fatal(err)
		}
		node.mu.Lock()
		in := node.instances[keyOf("t", "i")]
		node.mu.Unlock()
		if in == nil {
			t.Fatal("instance not built")
		}
		stores[n] = make(map[string][]float64)
		total := 0
		for _, k := range in.Testbed.Store.Keys() {
			for _, s := range in.Testbed.Store.Series(k.Component, k.Metric) {
				stores[n][k.Component] = append(stores[n][k.Component], float64(s.T), s.V)
				total++
			}
		}
		if total != len(samples) {
			t.Errorf("store holds %d samples of %d posted", total, len(samples))
		}
		node.Shutdown()
	}
	if !reflect.DeepEqual(stores[0], stores[1]) {
		t.Errorf("out-of-order batch left a different store:\n sorted   %v\n shuffled %v", stores[0], stores[1])
	}
}

// numberEdges are the literals at the edges of the scanner's exact fast
// paths (exactFloat, divFloat and int's short branch) and of the grammar: 2^53 and
// its neighbours, 17 to 20 significant digits, 22 and 23 fraction
// digits, signed zeros, the float64 extremes and the int64 ones.
var numberEdges = []string{
	"0", "-0", "0.0", "-0.0", "1", "-1", "1.5", "-1.5", "300", "1849.96",
	"9007199254740991", "9007199254740992", "9007199254740993", "-9007199254740993",
	"0.9007199254740991", "900719925474099.3",
	"12345678901234567", "0.12345678901234567", "1234567890123456789",
	"0.1234567890123456789", "12345678901234567890", "0.000000000000000001",
	"0.0000000000000000000001", "0.0000000000000000001234",
	"0.00000000000000000000001", "0.00000000000000000001234",
	"1.7976931348623157e308", "5e-324", "1e999", "-1e999", "1e-400",
	"999999999999999999", "-999999999999999999", "1000000000000000000",
	"9223372036854775807", "-9223372036854775808", "9223372036854775808",
	"1E+2", "1e-2", "1.0", "01", "-", ".5", "5.", "+1", "0x1", "1e", "1e+",
	"NaN", "null", `"1"`, " 7 ", "7 x",
	// divFloat's rounding: halfway cases to even, and the widest operands.
	"9007199254740993", "9007199254740995", "0.30000000000000004",
	"1.0000000000000002", "0.9999999999999999999", "0.1234567890123456789",
	"9999999999999999999",
}

// FuzzScanNumber holds the scanner's number reading to encoding/json's
// on any literal: float and int accept exactly what encoding/json reads
// into a float64 or int field (null, which it reads as nothing, the
// scanner declines), and every value they accept has the same bits.
func FuzzScanNumber(f *testing.F) {
	for _, lit := range numberEdges {
		f.Add(lit)
	}
	f.Fuzz(func(t *testing.T, lit string) { checkNumber(t, lit) })
}

func checkNumber(t *testing.T, lit string) {
	t.Helper()
	var wantF *float64
	sc := &scanner{buf: []byte(lit)}
	gotF, ok := sc.float()
	ok = ok && sc.end()
	jsonOK := json.Unmarshal([]byte(lit), &wantF) == nil && wantF != nil
	if ok != jsonOK {
		t.Errorf("float(%q) accepted = %v, encoding/json = %v", lit, ok, jsonOK)
	} else if ok && math.Float64bits(gotF) != math.Float64bits(*wantF) {
		t.Errorf("float(%q) = %v (%#x), encoding/json %v (%#x)", lit, gotF, math.Float64bits(gotF), *wantF, math.Float64bits(*wantF))
	}

	var wantI *int
	sc = &scanner{buf: []byte(lit)}
	gotI, ok := sc.int()
	ok = ok && sc.end()
	jsonOK = json.Unmarshal([]byte(lit), &wantI) == nil && wantI != nil
	if ok != jsonOK {
		t.Errorf("int(%q) accepted = %v, encoding/json = %v", lit, ok, jsonOK)
	} else if ok && gotI != *wantI {
		t.Errorf("int(%q) = %d, encoding/json %d", lit, gotI, *wantI)
	}
}

// numberPath names the path float takes for a scanned literal.
func numberPath(n num) string {
	if _, ok := n.exactFloat(); ok {
		return "exact"
	}
	if _, ok := n.divFloat(); ok {
		return "div"
	}
	return "strconv"
}

// TestNumberFastPath pins which path each literal takes — exactFloat,
// divFloat's exact division, or strconv — so a change that quietly
// sends numbers back to ParseFloat shows here and not only in a
// benchmark; checkNumber holds each to encoding/json as well.
func TestNumberFastPath(t *testing.T) {
	for lit, want := range map[string]string{
		"0": "exact", "-0": "exact", "-0.0": "exact", "300": "exact", "1849.96": "exact",
		"0.1234567890123456": "exact", "9007199254740991": "exact",
		"0.0000000000000000000001": "exact", "0.0000000000000000001234": "exact",
		"0.000000000000000001":      "exact",
		"9007199254740992":          "div", // mantissa 2^53
		"9007199254740993":          "div", // halfway, to even
		"-9007199254740995":         "div", // halfway, to even (up)
		"0.12345678901234567":       "div", // 17 digits, past 2^53
		"0.30000000000000004":       "div",
		"1234567890123456789":       "div", // 19 digits
		"9999999999999999999":       "div", // the largest 19-digit mantissa
		"0.9999999999999999999":     "div", // 19 fraction digits
		"0.1234567890123456789":     "div",
		"12345678901234567890":      "strconv", // 20 digits
		"0.01234567890123456789":    "strconv", // 20 fraction digits
		"0.00000000000000000000001": "strconv", // 23 fraction digits
		"1E+2":                      "strconv", "5e-324": "strconv", "1.7976931348623157e308": "strconv",
	} {
		sc := &scanner{buf: []byte(lit)}
		n, ok := sc.number()
		if !ok {
			t.Fatalf("number(%q) declined", lit)
		}
		if got := numberPath(n); got != want {
			t.Errorf("%q takes %s, want %s", lit, got, want)
		}
		checkNumber(t, lit)
	}
}

// TestFloatMatchesParseFloat holds float to strconv.ParseFloat, bit for
// bit, on a million seeded literals: shortest round-trip forms of
// random float64s, random digit strings of 1 to 20 digits with the
// point anywhere, and ties — odd integers just past 2^53, x.5 just
// below it — that round half to even. Most of them take divFloat.
func TestFloatMatchesParseFloat(t *testing.T) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(20261018))
	var lit []byte
	paths := map[string]int{}
	for i := range n {
		lit = lit[:0]
		if rng.Intn(2) == 0 {
			lit = append(lit, '-')
		}
		switch i % 4 {
		case 0: // shortest form of a value in [1e-4, 1e19)
			lit = strconv.AppendFloat(lit, math.Pow(10, rng.Float64()*23-4), 'f', -1, 64)
		case 1: // 1 to 20 random digits, the point before any of them or none
			nd, p := 1+rng.Intn(20), rng.Intn(21)
			if p == 0 {
				lit = append(lit, "0."...)
			}
			lit = append(lit, byte('1'+rng.Intn(9)))
			for j := 1; j < nd; j++ {
				if j == p {
					lit = append(lit, '.')
				}
				lit = append(lit, byte('0'+rng.Intn(10)))
			}
		case 2: // integer ties and near-ties in [2^53, 2^56)
			lit = strconv.AppendUint(lit, 1<<53+rng.Uint64()%(7<<53), 10)
		case 3: // x.5 ties and x.25, x.75 between 2^51 and 2^53
			lit = strconv.AppendUint(lit, 1<<51+rng.Uint64()%(3<<51), 10)
			lit = append(lit, []string{".5", ".25", ".75"}[rng.Intn(3)]...)
		}
		sc := &scanner{buf: lit}
		num, ok := sc.number()
		if !ok || sc.pos != len(lit) {
			t.Fatalf("number(%q) declined", lit)
		}
		paths[numberPath(num)]++
		sc.pos = 0
		got, ok := sc.float()
		want, err := strconv.ParseFloat(string(lit), 64)
		if !ok || err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("float(%q) = %v (%#x) %v, ParseFloat %v (%#x) %v",
				lit, got, math.Float64bits(got), ok, want, math.Float64bits(want), err)
		}
	}
	t.Logf("paths: %v", paths)
	if paths["div"] < n/3 {
		t.Errorf("only %d of %d literals took divFloat", paths["div"], n)
	}
}
