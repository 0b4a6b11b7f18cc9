package symptoms

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Expr is a parsed symptom expression, evaluated against a fact base with
// template bindings ($V, $P, $T, $S) substituted into patterns.
type Expr interface {
	Eval(fb *FactBase, bind map[string]string) bool
	String() string
	// eval is Eval with the bound variables in the order substitution
	// applies them (appendVars), substituting each pattern into buf, or,
	// with a nil buf, into a string of its own.
	eval(fb *FactBase, vars []variable, buf *[]byte) bool
}

// existsExpr: exists(pattern) — some matching fact has score > 0.
type existsExpr struct{ pattern string }

func (e existsExpr) Eval(fb *FactBase, bind map[string]string) bool {
	return e.eval(fb, appendVars(nil, bind), nil)
}
func (e existsExpr) eval(fb *FactBase, vars []variable, buf *[]byte) bool {
	return fb.Exists(substituteIn(buf, e.pattern, vars))
}
func (e existsExpr) String() string { return fmt.Sprintf("exists(%s)", e.pattern) }

// geExpr: ge(pattern, c) — the max score among matching facts is >= c.
type geExpr struct {
	pattern string
	c       float64
}

func (e geExpr) Eval(fb *FactBase, bind map[string]string) bool {
	return e.eval(fb, appendVars(nil, bind), nil)
}
func (e geExpr) eval(fb *FactBase, vars []variable, buf *[]byte) bool {
	return fb.MaxScore(substituteIn(buf, e.pattern, vars)) >= e.c
}
func (e geExpr) String() string { return fmt.Sprintf("ge(%s, %g)", e.pattern, e.c) }

// notExpr: not(expr).
type notExpr struct{ inner Expr }

func (e notExpr) Eval(fb *FactBase, bind map[string]string) bool {
	return e.eval(fb, appendVars(nil, bind), nil)
}
func (e notExpr) eval(fb *FactBase, vars []variable, buf *[]byte) bool {
	return !e.inner.eval(fb, vars, buf)
}
func (e notExpr) String() string { return fmt.Sprintf("not(%s)", e.inner) }

// andExpr: and(e1, e2, ...).
type andExpr struct{ args []Expr }

func (e andExpr) Eval(fb *FactBase, bind map[string]string) bool {
	return e.eval(fb, appendVars(nil, bind), nil)
}
func (e andExpr) eval(fb *FactBase, vars []variable, buf *[]byte) bool {
	for _, a := range e.args {
		if !a.eval(fb, vars, buf) {
			return false
		}
	}
	return true
}
func (e andExpr) String() string { return "and(" + joinExprs(e.args) + ")" }

// orExpr: or(e1, e2, ...).
type orExpr struct{ args []Expr }

func (e orExpr) Eval(fb *FactBase, bind map[string]string) bool {
	return e.eval(fb, appendVars(nil, bind), nil)
}
func (e orExpr) eval(fb *FactBase, vars []variable, buf *[]byte) bool {
	for _, a := range e.args {
		if a.eval(fb, vars, buf) {
			return true
		}
	}
	return false
}
func (e orExpr) String() string { return "or(" + joinExprs(e.args) + ")" }

// beforeExpr: before(p1, p2) — the earliest timed fact matching p1
// precedes the earliest timed fact matching p2 (both must exist). This is
// the paper's "complex symptoms with temporal properties".
type beforeExpr struct{ p1, p2 string }

func (e beforeExpr) Eval(fb *FactBase, bind map[string]string) bool {
	return e.eval(fb, appendVars(nil, bind), nil)
}
func (e beforeExpr) eval(fb *FactBase, vars []variable, buf *[]byte) bool {
	t1, ok1 := fb.EarliestT(substituteIn(buf, e.p1, vars))
	t2, ok2 := fb.EarliestT(substituteIn(buf, e.p2, vars))
	return ok1 && ok2 && t1 < t2
}
func (e beforeExpr) String() string { return fmt.Sprintf("before(%s, %s)", e.p1, e.p2) }

func joinExprs(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// variable is one bound template variable and the text it stands for.
type variable struct{ name, value string }

// appendVars appends bind's variables to dst in the order substitution
// applies them: longest name first, so a binding for $V cannot mangle an
// occurrence of $VOL, and ties lexicographically, so the result never
// depends on map iteration order.
func appendVars(dst []variable, bind map[string]string) []variable {
	from := len(dst)
	for k, v := range bind {
		dst = append(dst, variable{k, v})
	}
	slices.SortFunc(dst[from:], func(a, b variable) int {
		if c := cmp.Compare(len(b.name), len(a.name)); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})
	return dst
}

// substitute replaces $-prefixed template variables in a pattern, in
// appendVars order. Each variable applies to the text the ones before it
// left, so a value may itself name a shorter variable ($P bound to
// "pool-$V"). Bindings carry one or two variables, so the variables are
// ordered on the stack; more spill to the heap and order the same way.
func substitute(pattern string, bind map[string]string) string {
	var vbuf [4]variable
	return substituteIn(nil, pattern, appendVars(vbuf[:0], bind))
}

// substituteIn is appendSubstitute writing into buf, or, for a nil buf,
// into a buffer of the pattern's own, sized for one occurrence of each
// variable.
func substituteIn(buf *[]byte, pattern string, vars []variable) string {
	if buf == nil {
		if !strings.Contains(pattern, "$") {
			return pattern
		}
		n := len(pattern)
		for _, v := range vars {
			n += len(v.value)
		}
		own := make([]byte, 0, n)
		buf = &own
	}
	return appendSubstitute(buf, pattern, vars)
}

// appendSubstitute is the append form of substitute over ordered
// variables: each variable that occurs appends the text with it replaced
// to buf, and the result is the last text appended or the pattern itself
// when no variable occurs.
//
// The result reads buf's bytes in place, so it holds only until buf is
// next written from its start: a later append leaves those bytes as they
// are, but a recycled buffer does not. Callers look the result up and
// let it go; nothing keeps it.
func appendSubstitute(buf *[]byte, pattern string, vars []variable) string {
	if !strings.Contains(pattern, "$") {
		return pattern
	}
	out := pattern
	for _, v := range vars {
		if v.name == "" { // strings.ReplaceAll's rule for an empty key
			out = strings.ReplaceAll(out, v.name, v.value)
			continue
		}
		i := strings.Index(out, v.name)
		if i < 0 {
			continue
		}
		start := len(*buf)
		for i >= 0 {
			*buf = append(*buf, out[:i]...)
			*buf = append(*buf, v.value...)
			out = out[i+len(v.name):]
			i = strings.Index(out, v.name)
		}
		*buf = append(*buf, out...)
		b := (*buf)[start:]
		out = unsafe.String(unsafe.SliceData(b), len(b))
	}
	return out
}

// ParseExpr parses one symptom expression, e.g.
//
//	ge(metric-anomaly:$V:*, 0.8)
//	and(exists(new-volume-in-pool:$P), not(exists(record-anomaly:*)))
//	before(event:VolumeCreated:*, first-unsat-run)
func ParseExpr(src string) (Expr, error) {
	p := &exprParser{src: src}
	e, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("symptoms: parsing %q: %w", src, err)
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("symptoms: parsing %q: trailing input at %d", src, p.pos)
	}
	return e, nil
}

// MustParseExpr is ParseExpr that panics; for built-in entries.
func MustParseExpr(src string) Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

// maxExprDepth bounds expression nesting so hostile input (a long
// not(not(not(... chain) fails with an error instead of exhausting the
// goroutine stack. Built-in and mined expressions nest two or three deep.
const maxExprDepth = 64

type exprParser struct {
	src   string
	pos   int
	depth int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

// ident reads a function name or pattern token.
func (p *exprParser) ident() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '(' || c == ')' || c == ',' || c == ' ' || c == '\t' {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *exprParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return fmt.Errorf("expected %q at offset %d", string(c), p.pos)
	}
	p.pos++
	return nil
}

func (p *exprParser) parse() (Expr, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxExprDepth {
		return nil, fmt.Errorf("expression nested deeper than %d at offset %d", maxExprDepth, p.pos)
	}
	p.skipSpace()
	name := p.ident()
	if name == "" {
		return nil, fmt.Errorf("empty expression at offset %d", p.pos)
	}
	if err := p.expect('('); err != nil {
		return nil, err
	}
	switch name {
	case "exists":
		pat, err := p.pattern()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return existsExpr{pattern: pat}, nil
	case "ge":
		pat, err := p.pattern()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		p.skipSpace()
		num := p.ident()
		c, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return nil, fmt.Errorf("bad threshold %q", num)
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return geExpr{pattern: pat, c: c}, nil
	case "not":
		inner, err := p.parse()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return notExpr{inner: inner}, nil
	case "and", "or":
		var args []Expr
		for {
			arg, err := p.parse()
			if err != nil {
				return nil, err
			}
			args = append(args, arg)
			p.skipSpace()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if name == "and" {
			return andExpr{args: args}, nil
		}
		return orExpr{args: args}, nil
	case "before":
		p1, err := p.pattern()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		p2, err := p.pattern()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return beforeExpr{p1: p1, p2: p2}, nil
	default:
		return nil, fmt.Errorf("unknown function %q", name)
	}
}

// pattern reads a fact pattern: everything up to the next ',' or ')'.
// Fact names may contain spaces (metric names like "Blocks Read"), so the
// pattern token is delimiter-terminated rather than space-terminated.
func (p *exprParser) pattern() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ',' && p.src[p.pos] != ')' {
		p.pos++
	}
	pat := strings.TrimRight(p.src[start:p.pos], " \t")
	if pat == "" {
		return "", fmt.Errorf("empty pattern at offset %d", start)
	}
	return pat, nil
}
