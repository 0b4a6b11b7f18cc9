package api

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// The accept path's fast decoder. A monitoring agent posts the same
// shape all day — json.Marshal of a SampleBatch or RunBatch — and
// reflection-driven encoding/json spent most of an ingest node's CPU
// rediscovering it. The scanner reads that canonical shape straight
// into the wire structs: exact-case known keys, each at most once,
// strings free of escapes and valid UTF-8, RFC 8259 numbers converted
// by the strconv calls encoding/json itself makes (so every value is
// bit-identical), nothing but whitespace around the batch.
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

// ws skips JSON whitespace.
func (s *scanner) ws() {
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
	ascii := true
	for i := s.pos; i < len(s.buf); i++ {
		switch c := s.buf[i]; {
		case c == '"':
			v := s.buf[s.pos:i]
			s.pos = i + 1
			return v, ascii || utf8.Valid(v)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// name scans a string that repeats across samples and interns it.
func (s *scanner) name() (string, bool) {
	b, ok := s.str()
	if !ok {
		return "", false
	}
	return s.names.intern(b), true
}

// number scans an RFC 8259 number literal — the grammar encoding/json's
// own scanner accepts — and reports whether it is a plain integer.
func (s *scanner) number() (lit []byte, integer, ok bool) {
	s.ws()
	b, i := s.buf, s.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		end := digits(b, i+1)
		if end == i+1 {
			return nil, false, false
		}
		i, integer = end, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		end := digits(b, j)
		if end == j {
			return nil, false, false
		}
		i, integer = end, false
	}
	lit = b[s.pos:i]
	s.pos = i
	return lit, integer, true
}

// digits returns the index after the run of digits starting at b[i].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float scans a number into a float64 field. Out of range (1e999)
// declines: encoding/json refuses it.
func (s *scanner) float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// int scans a number into an int field. A fraction or exponent (1.0,
// 1e2) or an overflow declines: encoding/json refuses them.
func (s *scanner) int() (int, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}
