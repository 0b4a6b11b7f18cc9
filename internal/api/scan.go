package api

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
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
// encoding/json's.
//
// Keys are predicted: each shape lists its keys in json.Marshal order,
// quoted and with their colon, and the key after the last one seen
// costs one compare of that literal. Any other key — reordered, after
// an omitted one, spaced — is scanned and looked up in the list, and
// the prediction picks up after it.
//
// A number is read in the pass that checks its grammar. With no
// exponent, at most 19 significant digits and a mantissa below 2^53 it
// is the quotient of two exact float64s, which one correctly rounded
// division gets right (exactFloat, the fast path strconv itself tries
// first); a mantissa from 2^53 up with at most 19 fraction digits is
// divided exactly in 128 bits by the uint64 10^frac and rounded half to
// even (divFloat). An int of at most 18 digits is its mantissa. Only
// exponents, mantissas of 20 or more digits, and more fraction digits
// than those paths take go through the strconv call encoding/json
// itself makes.
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

// Each shape lists its keys in json.Marshal order, each with its quotes
// and colon: object matches the next expected one with one compare and
// hands field its index, which is also its bit in the seen mask.
var sampleBatchKeys = []string{`"tenant":`, `"instance":`, `"samples":`, `"watermark":`}

// sampleBatch fills b from body, or declines. Of what b held only the
// Samples backing array survives, reused when it is large enough: a
// recycled batch (sampleBatchPool) decodes like a fresh one.
func (s *scanner) sampleBatch(body []byte, b *SampleBatch) bool {
	s.buf, s.pos = body, 0
	spare := b.Samples[:0]
	*b = SampleBatch{}
	ok := s.object(sampleBatchKeys, func(key int) (ok bool) {
		switch key {
		case 0:
			b.Tenant, ok = s.name()
		case 1:
			b.Instance, ok = s.name()
		case 2:
			// Non-nil even when empty, as encoding/json leaves it.
			if h := s.hint(); spare == nil || cap(spare) < h {
				spare = make([]WireSample, 0, h)
			}
			b.Samples = spare
			return s.array(func() bool {
				b.Samples = append(b.Samples, WireSample{})
				return s.sample(&b.Samples[len(b.Samples)-1])
			})
		case 3:
			var w float64
			w, ok = s.float()
			b.Watermark = &w
		}
		return ok
	})
	return ok && s.end()
}

var sampleKeys = []string{`"component":`, `"metric":`, `"t":`, `"v":`}

func (s *scanner) sample(ws *WireSample) bool {
	return s.object(sampleKeys, func(key int) (ok bool) {
		switch key {
		case 0:
			ws.Component, ok = s.name()
		case 1:
			ws.Metric, ok = s.name()
		case 2:
			ws.T, ok = s.float()
		case 3:
			ws.V, ok = s.float()
		}
		return ok
	})
}

var runBatchKeys = []string{`"tenant":`, `"instance":`, `"runs":`}

// runBatch fills b from body, or declines.
func (s *scanner) runBatch(body []byte, b *RunBatch) bool {
	s.buf, s.pos = body, 0
	ok := s.object(runBatchKeys, func(key int) (ok bool) {
		switch key {
		case 0:
			b.Tenant, ok = s.name()
		case 1:
			b.Instance, ok = s.name()
		case 2:
			b.Runs = []WireRun{}
			return s.array(func() bool {
				b.Runs = append(b.Runs, WireRun{})
				return s.run(&b.Runs[len(b.Runs)-1])
			})
		}
		return ok
	})
	return ok && s.end()
}

var runKeys = []string{`"query":`, `"run_id":`, `"start":`, `"stop":`, `"phys_io":`,
	`"cache_hit":`, `"lock_wait":`, `"seq_scans":`, `"idx_scans":`, `"ops":`}

func (s *scanner) run(wr *WireRun) bool {
	return s.object(runKeys, func(key int) (ok bool) {
		switch key {
		case 0:
			wr.Query, ok = s.name()
		case 1:
			// Unique per run: copied, not interned.
			var id []byte
			id, ok = s.str()
			wr.RunID = string(id)
		case 2:
			wr.Start, ok = s.float()
		case 3:
			wr.Stop, ok = s.float()
		case 4:
			wr.PhysIO, ok = s.float()
		case 5:
			wr.CacheHit, ok = s.float()
		case 6:
			wr.LockWait, ok = s.float()
		case 7:
			wr.SeqScans, ok = s.int()
		case 8:
			wr.IdxScans, ok = s.int()
		case 9:
			wr.Ops = make([]WireOp, 0, s.hint())
			return s.array(func() bool {
				wr.Ops = append(wr.Ops, WireOp{})
				return s.op(&wr.Ops[len(wr.Ops)-1])
			})
		}
		return ok
	})
}

var opKeys = []string{`"id":`, `"type":`, `"table":`, `"start":`, `"stop":`, `"recorded":`,
	`"act_rows":`, `"est_rows":`, `"phys_io":`, `"cache_hit":`, `"io_time":`, `"lock_wait":`}

func (s *scanner) op(op *WireOp) bool {
	return s.object(opKeys, func(key int) (ok bool) {
		switch key {
		case 0:
			op.ID, ok = s.int()
		case 1:
			op.Type, ok = s.name()
		case 2:
			op.Table, ok = s.name()
		case 3:
			op.Start, ok = s.float()
		case 4:
			op.Stop, ok = s.float()
		case 5:
			op.Recorded, ok = s.float()
		case 6:
			op.ActRows, ok = s.float()
		case 7:
			op.EstRows, ok = s.float()
		case 8:
			op.PhysIO, ok = s.float()
		case 9:
			op.CacheHit, ok = s.float()
		case 10:
			op.IOTime, ok = s.float()
		case 11:
			op.LockWait, ok = s.float()
		}
		return ok
	})
}

// object walks one object's members, handing each key's index in keys
// to field, which scans the member's value. The key after the last one
// seen is predicted: when the body continues with its literal, one
// compare consumes key and colon. Otherwise — a key out of order, one
// omitted, whitespace — the key is scanned and looked up, and the
// prediction restarts after it. An unknown key or a repeated one
// declines: encoding/json refuses the first and merges the second.
func (s *scanner) object(keys []string, field func(key int) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	var seen uint
	next := 0
	for {
		i := next
		if i >= len(keys) || !s.lit(keys[i]) {
			key, ok := s.str()
			if !ok || !s.eat(':') {
				return false
			}
			if i = keyIndex(keys, key); i < 0 {
				return false
			}
		}
		if seen&(1<<i) != 0 || !field(i) {
			return false
		}
		seen |= 1 << i
		next = i + 1
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// lit consumes lit if the body continues with it, byte for byte.
func (s *scanner) lit(lit string) bool {
	if len(s.buf)-s.pos < len(lit) || string(s.buf[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// keyIndex returns the index of the key literal whose name is key, or -1.
func keyIndex(keys []string, key []byte) int {
	for i, k := range keys {
		if k[1:len(k)-2] == string(key) {
			return i
		}
	}
	return -1
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
// returns the index after it, eight digits at a time while eight
// remain. Past 19 digits the mantissa may wrap; exactFloat, divFloat
// and int never read it then.
func (n *num) digits(b []byte, i int) int {
	for ; i+8 <= len(b); i += 8 {
		v, ok := eightDigits(binary.LittleEndian.Uint64(b[i:]))
		if !ok {
			break
		}
		n.mant = n.mant*1e8 + v
		n.nd += 8
	}
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

// eightDigits reads eight ASCII digits, first digit in the low byte, as
// one number, reporting whether all eight are digits (the SWAR test and
// fold simdjson uses: each byte is 0x30-0x39 exactly when its high
// nibble is 3 and adding 6 keeps it 3; then pairs, quads and halves
// combine in three multiplies).
func eightDigits(v uint64) (uint64, bool) {
	const hi = 0xF0F0F0F0F0F0F0F0
	if v&hi|(v+0x0606060606060606)&hi>>4 != 0x3333333333333333 {
		return 0, false
	}
	v = (v & 0x0F0F0F0F0F0F0F0F) * (1 + 10<<8) >> 8
	v = (v & 0x00FF00FF00FF00FF) * (1 + 100<<16) >> 16
	return (v & 0x0000FFFF0000FFFF) * (1 + 10000<<32) >> 32, true
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

// pow10u holds the powers of ten a uint64 holds, 10^19 the largest.
var pow10u = func() (t [20]uint64) {
	t[0] = 1
	for i := 1; i < len(t); i++ {
		t[i] = t[i-1] * 10
	}
	return t
}()

// divFloat takes what exactFloat cannot of a literal with no exponent,
// at most 19 significant digits and at most 19 fraction digits: a
// mantissa m from 2^53 up, so 10^19 > m/10^frac > 2^53/10^19, all
// normal. Shifted left by s into 128 bits, m divides exactly once by the
// uint64 10^frac, giving a 63- or 64-bit quotient q and a remainder r
// with m/10^frac = (q + r/10^frac)·2^-s. Rounding q to 53 bits, half to
// even with a non-zero r as sticky, is the correctly rounded value —
// bit for bit what ParseFloat returns.
func (n num) divFloat() (float64, bool) {
	if n.exp || n.nd > 19 || n.frac >= len(pow10u) || n.mant < 1<<53 {
		return 0, false
	}
	d := pow10u[n.frac]
	// s puts q = m·2^s/d in (2^62, 2^64): it fits 64 bits, and hi < d.
	s := uint(63 + bits.LeadingZeros64(n.mant) - bits.LeadingZeros64(d))
	var hi, lo uint64
	if s >= 64 {
		hi = n.mant << (s - 64)
	} else {
		hi, lo = n.mant>>(64-s), n.mant<<s
	}
	q, r := bits.Div64(hi, lo, d)
	drop := uint(64 - 53 - bits.LeadingZeros64(q))
	m, rest, half := q>>drop, q&(1<<drop-1), uint64(1)<<(drop-1)
	if rest > half || rest == half && (r != 0 || m&1 == 1) {
		m++ // 2^53 is exact: Ldexp carries it into the exponent
	}
	f := math.Ldexp(float64(m), int(drop)-int(s))
	if n.neg {
		f = -f
	}
	return f, true
}

// float scans a number into a float64 field: exactly when it can
// (exactFloat, divFloat), through strconv.ParseFloat otherwise. Out of
// range (1e999) declines: encoding/json refuses it.
func (s *scanner) float() (float64, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	if f, ok := n.exactFloat(); ok {
		return f, true
	}
	if f, ok := n.divFloat(); ok {
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
