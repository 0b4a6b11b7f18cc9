package api

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"
)

// The accept path's fast decoder. A monitoring agent posts the same
// shape all day — json.Marshal of a SampleBatch or RunBatch — and
// reflection-driven encoding/json spent most of an ingest node's CPU
// rediscovering it. The scanner reads that canonical shape straight
// into the wire structs: exact-case known keys, each at most once,
// strings free of escapes and valid UTF-8, RFC 8259 numbers, nothing
// but whitespace around the batch. Every value is bit-identical to
// encoding/json's. A number is read in the pass that checks its
// grammar: one with no exponent, at most 19 significant digits, a
// mantissa below 2^53 and at most 22 fraction digits is the quotient of
// two exact float64s, which one correctly rounded division gets right
// (the fast path strconv itself tries first); an int of at most 18
// digits is its mantissa. Every other literal — most 17-digit values,
// exponents, the long tail — goes through the strconv call
// encoding/json itself makes.
//
// It has no error path. On anything else — an unknown or repeated key,
// an escape, a null, a number a field cannot hold, malformed JSON — it
// declines, and decodeStrict reads the same bytes: encoding/json stays
// the single authority on what is rejected and with which message. A
// declined batch may be partly filled; the caller discards it.

const (
	// internCap and internMaxLen bound a scanner's name table: at most
	// internCap strings of at most internMaxLen bytes, cleared when
	// full. A tenant-day repeats ~150 component, metric and query names
	// ~37 000 times, so the table saves two allocations per sample; an
	// adversarial stream of unique names costs what it cost before.
	internCap    = 4096
	internMaxLen = 64
	// maxHint caps how many elements a slice is sized for up front, so
	// the sizing pass cannot be made to allocate more than a batch of
	// the example client's largest size; longer arrays grow by append.
	maxHint = 4096
)

// internTable returns one shared string per distinct name.
type internTable map[string]string

func (t internTable) intern(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= internMaxLen {
		if len(t) >= internCap {
			clear(t)
		}
		t[s] = s
	}
	return s
}

// scanner holds the position in one body and the name table that
// outlives it (the scanner is pooled with the body buffer).
type scanner struct {
	buf   []byte
	pos   int
	names internTable
	// recent holds, per nameSlot, the last name interned there: a name
	// that repeats costs one comparison instead of a map lookup.
	recent [256]string
}

// sampleBatch fills b from body, or declines. Of what b held only the
// Samples backing array survives, reused when it is large enough: a
// recycled batch (sampleBatchPool) decodes like a fresh one.
func (s *scanner) sampleBatch(body []byte, b *SampleBatch) bool {
	s.buf, s.pos = body, 0
	spare := b.Samples[:0]
	*b = SampleBatch{}
	ok := s.object(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "tenant":
			b.Tenant, ok = s.name()
			return 1 << 0, ok
		case "instance":
			b.Instance, ok = s.name()
			return 1 << 1, ok
		case "samples":
			// Non-nil even when empty, as encoding/json leaves it.
			if h := s.hint(); spare == nil || cap(spare) < h {
				spare = make([]WireSample, 0, h)
			}
			b.Samples = spare
			return 1 << 2, s.array(func() bool {
				b.Samples = append(b.Samples, WireSample{})
				return s.sample(&b.Samples[len(b.Samples)-1])
			})
		case "watermark":
			var w float64
			w, ok = s.float()
			b.Watermark = &w
			return 1 << 3, ok
		}
		return 0, false
	})
	return ok && s.end()
}

func (s *scanner) sample(ws *WireSample) bool {
	return s.object(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "component":
			ws.Component, ok = s.name()
			return 1 << 0, ok
		case "metric":
			ws.Metric, ok = s.name()
			return 1 << 1, ok
		case "t":
			ws.T, ok = s.float()
			return 1 << 2, ok
		case "v":
			ws.V, ok = s.float()
			return 1 << 3, ok
		}
		return 0, false
	})
}

// runBatch fills b from body, or declines.
func (s *scanner) runBatch(body []byte, b *RunBatch) bool {
	s.buf, s.pos = body, 0
	ok := s.object(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "tenant":
			b.Tenant, ok = s.name()
			return 1 << 0, ok
		case "instance":
			b.Instance, ok = s.name()
			return 1 << 1, ok
		case "runs":
			b.Runs = []WireRun{}
			return 1 << 2, s.array(func() bool {
				b.Runs = append(b.Runs, WireRun{})
				return s.run(&b.Runs[len(b.Runs)-1])
			})
		}
		return 0, false
	})
	return ok && s.end()
}

func (s *scanner) run(wr *WireRun) bool {
	return s.object(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "query":
			wr.Query, ok = s.name()
			return 1 << 0, ok
		case "run_id":
			// Unique per run: copied, not interned.
			var id []byte
			id, ok = s.str()
			wr.RunID = string(id)
			return 1 << 1, ok
		case "start":
			wr.Start, ok = s.float()
			return 1 << 2, ok
		case "stop":
			wr.Stop, ok = s.float()
			return 1 << 3, ok
		case "phys_io":
			wr.PhysIO, ok = s.float()
			return 1 << 4, ok
		case "cache_hit":
			wr.CacheHit, ok = s.float()
			return 1 << 5, ok
		case "lock_wait":
			wr.LockWait, ok = s.float()
			return 1 << 6, ok
		case "seq_scans":
			wr.SeqScans, ok = s.int()
			return 1 << 7, ok
		case "idx_scans":
			wr.IdxScans, ok = s.int()
			return 1 << 8, ok
		case "ops":
			wr.Ops = make([]WireOp, 0, s.hint())
			return 1 << 9, s.array(func() bool {
				wr.Ops = append(wr.Ops, WireOp{})
				return s.op(&wr.Ops[len(wr.Ops)-1])
			})
		}
		return 0, false
	})
}

func (s *scanner) op(op *WireOp) bool {
	return s.object(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "id":
			op.ID, ok = s.int()
			return 1 << 0, ok
		case "type":
			op.Type, ok = s.name()
			return 1 << 1, ok
		case "table":
			op.Table, ok = s.name()
			return 1 << 2, ok
		case "start":
			op.Start, ok = s.float()
			return 1 << 3, ok
		case "stop":
			op.Stop, ok = s.float()
			return 1 << 4, ok
		case "recorded":
			op.Recorded, ok = s.float()
			return 1 << 5, ok
		case "act_rows":
			op.ActRows, ok = s.float()
			return 1 << 6, ok
		case "est_rows":
			op.EstRows, ok = s.float()
			return 1 << 7, ok
		case "phys_io":
			op.PhysIO, ok = s.float()
			return 1 << 8, ok
		case "cache_hit":
			op.CacheHit, ok = s.float()
			return 1 << 9, ok
		case "io_time":
			op.IOTime, ok = s.float()
			return 1 << 10, ok
		case "lock_wait":
			op.LockWait, ok = s.float()
			return 1 << 11, ok
		}
		return 0, false
	})
}

// object walks one object's members, handing each key to field, which
// scans the member's value and names the key's bit in the seen mask.
// An unknown key or a repeated one declines: encoding/json refuses the
// first and merges the second.
func (s *scanner) object(field func(key []byte) (bit uint, ok bool)) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	var seen uint
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// array walks one array's elements; elem scans one.
func (s *scanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.eat(',') {
			return s.eat(']')
		}
	}
}

// hint sizes the array of flat objects that comes next: the '{' before
// its closing ']'. Exact for a canonical body, whose names hold neither
// byte; otherwise only a capacity, which append corrects.
func (s *scanner) hint() int {
	rest := s.buf[s.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(bytes.Count(rest, []byte{'{'}), maxHint)
}

// ws skips JSON whitespace. A canonical body has none, so the common
// case is one comparison.
func (s *scanner) ws() {
	if s.pos < len(s.buf) && s.buf[s.pos] > ' ' {
		return
	}
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte after any whitespace.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.pos == len(s.buf)
}

// str scans a string with no escape in it and returns its bytes, which
// alias the body. Escapes decline; so does invalid UTF-8, which
// encoding/json would rewrite to U+FFFD.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	b, ascii := s.buf, true
	for i := s.pos; i < len(b); i++ {
		c := b[i]
		if !strStop[c] {
			continue
		}
		switch {
		case c == '"':
			v := b[s.pos:i]
			s.pos = i + 1
			return v, ascii || utf8.Valid(v)
		case c == '\\' || c < ' ':
			return nil, false
		default:
			ascii = false
		}
	}
	return nil, false
}

// strStop marks the bytes str must look at: the closing quote, the
// ones that decline, and the start of a multi-byte rune. One table load
// per byte replaces three comparisons.
var strStop = func() (t [256]bool) {
	for c := range t {
		t[c] = c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf
	}
	return t
}()

// name scans a string that repeats across samples and interns it.
func (s *scanner) name() (string, bool) {
	b, ok := s.str()
	switch {
	case !ok:
		return "", false
	case len(b) == 0 || len(b) > internMaxLen:
		return s.names.intern(b), true
	}
	slot := &s.recent[nameSlot(b)]
	if *slot != string(b) {
		*slot = s.names.intern(b)
	}
	return *slot, true
}

// nameSlot spreads names over scanner.recent by length and three bytes:
// enough to part disk-1 from disk-2 and readIO from readTime.
func nameSlot(b []byte) uint8 {
	return uint8(len(b)*31) ^ b[0] ^ b[len(b)-1]<<3 ^ b[len(b)/2]<<5
}

// num is what number learns of a literal while it checks its grammar:
// its significant digits read as one integer (exact while nd <= 19),
// how many there are, how many digits follow the point, and whether an
// exponent follows.
type num struct {
	start    int // the literal is buf[start:pos]
	mant     uint64
	nd, frac int
	neg, exp bool
}

// number scans an RFC 8259 number literal — the grammar encoding/json's
// own scanner accepts — and reads its mantissa in the same pass.
func (s *scanner) number() (n num, ok bool) {
	s.ws()
	b, i := s.buf, s.pos
	n.start = i
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = n.digits(b, i)
	default:
		return n, false
	}
	if i < len(b) && b[i] == '.' {
		j := i + 1
		if n.mant == 0 { // the zeros of 0.000…1 are not significant
			for j < len(b) && b[j] == '0' {
				j++
			}
		}
		end := n.digits(b, j)
		if end == i+1 {
			return n, false
		}
		i, n.frac = end, end-i-1
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		var e num // the exponent's digits; only their presence matters
		end := e.digits(b, j)
		if end == j {
			return n, false
		}
		i, n.exp = end, true
	}
	s.pos = i
	return n, true
}

// digits scans the run of digits starting at b[i] into n's mantissa and
// returns the index after it. Past 19 digits the mantissa may wrap;
// exactFloat and int never read it then.
func (n *num) digits(b []byte, i int) int {
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		n.mant = n.mant*10 + uint64(d)
		n.nd++
	}
	return i
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat is Clinger's fast path, the first one strconv's own atof
// tries: a mantissa below 2^53 and a power of ten up to 1e22 are both
// exact in a float64, so one correctly rounded division gives the
// correctly rounded value — bit for bit what ParseFloat returns.
func (n num) exactFloat() (float64, bool) {
	if n.exp || n.nd > 19 || n.mant >= 1<<53 || n.frac >= len(pow10) {
		return 0, false
	}
	f := float64(n.mant) / pow10[n.frac]
	if n.neg {
		f = -f
	}
	return f, true
}

// float scans a number into a float64 field: exactly when it can
// (exactFloat), through strconv.ParseFloat otherwise. Out of range
// (1e999) declines: encoding/json refuses it.
func (s *scanner) float() (float64, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	if f, ok := n.exactFloat(); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(s.buf[n.start:s.pos]), 64)
	return f, err == nil
}

// int scans a number into an int field. Up to 18 digits the mantissa is
// the value; longer literals go through strconv.ParseInt. A fraction or
// exponent (1.0, 1e2) or an overflow declines: encoding/json refuses
// them.
func (s *scanner) int() (int, bool) {
	n, ok := s.number()
	if !ok || n.frac > 0 || n.exp {
		return 0, false
	}
	if n.nd <= 18 && n.mant <= math.MaxInt {
		v := int(n.mant)
		if n.neg {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseInt(string(s.buf[n.start:s.pos]), 10, strconv.IntSize)
	return int(v), err == nil
}
