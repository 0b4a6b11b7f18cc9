package symptoms

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Scope declares which template bindings an entry expects.
type Scope string

// Entry scopes: the workflow instantiates volume-scoped entries once per
// volume on the plan's dependency paths (binding $V and $P), table-scoped
// entries once per plan table ($T), pool entries per pool ($P), server
// entries per server ($S), and global entries once.
const (
	ScopeVolume Scope = "volume"
	ScopeTable  Scope = "table"
	ScopePool   Scope = "pool"
	ScopeServer Scope = "server"
	ScopeGlobal Scope = "global"
)

// Condition is one weighted presence/absence condition of an entry.
type Condition struct {
	Weight float64
	Expr   Expr
	// text is Expr in the DSL, rendered once when the condition enters a
	// database (DB.Add, and so Parse); empty on a hand-built condition.
	text string
}

// exprText returns the condition's expression in the DSL.
func (c Condition) exprText() string {
	if c.text != "" {
		return c.text
	}
	return c.Expr.String()
}

// Entry is one root-cause entry: its conditions' weights sum to 100.
type Entry struct {
	// Kind names the root cause, e.g. "san-misconfig-contention".
	Kind string
	// Scope selects the bindings the entry is instantiated with.
	Scope Scope
	// Fix optionally describes the remediation, enabling the self-healing
	// extension of Section 7.
	Fix        string
	Conditions []Condition
}

// Render formats the entry in the administrator-editable DSL accepted by
// Parse. Rendering and re-parsing round-trips the entry (kind, scope,
// fix, weights, condition expressions), which is what lets knowledge
// learned at runtime — mined entries installed by the fleet's learning
// loop — persist across runs as ordinary database text.
func (e Entry) Render() string {
	var b strings.Builder
	b.WriteString("cause " + e.Kind + " scope=" + string(e.Scope))
	if e.Fix != "" {
		b.WriteString(` fix="` + escapeFix(e.Fix) + `"`)
	}
	b.WriteString(" {\n")
	for _, c := range e.Conditions {
		fmt.Fprintf(&b, "  %g: %s\n", c.Weight, c.exprText())
	}
	b.WriteString("}\n")
	return b.String()
}

// Category is the paper's three-way confidence classification.
type Category string

// Confidence categories (Section 4.1, Module SD).
const (
	High   Category = "high"   // score >= 80
	Medium Category = "medium" // 80 > score >= 50
	Low    Category = "low"    // score < 50
)

// Categorize maps a confidence score to its category.
func Categorize(score float64) Category {
	switch {
	case score >= 80:
		return High
	case score >= 50:
		return Medium
	default:
		return Low
	}
}

// CauseInstance is an evaluated root-cause hypothesis: an entry bound to a
// concrete subject.
type CauseInstance struct {
	Kind       string
	Subject    string
	Confidence float64
	Category   Category
	Fix        string
	// TrueConditions lists the conditions that held, for explanations.
	TrueConditions []string
}

// String implements fmt.Stringer.
func (c CauseInstance) String() string {
	return fmt.Sprintf("%s(%s) confidence=%.0f%% [%s]", c.Kind, c.Subject, c.Confidence, c.Category)
}

// DB is a symptoms database. Reads are safe for concurrent use;
// mutations (Add, Remove) must be externally synchronized with readers —
// the fleet layer installs mined entries only while its diagnosis
// service is quiescent.
type DB struct {
	entries []Entry
	version int
}

// NewDB returns an empty symptoms database.
func NewDB(entries ...Entry) *DB { return &DB{entries: entries} }

// Add appends an entry after validating that its weights sum to 100.
func (db *DB) Add(e Entry) error {
	var sum float64
	for _, c := range e.Conditions {
		sum += c.Weight
	}
	if len(e.Conditions) == 0 || sum < 99.5 || sum > 100.5 {
		return fmt.Errorf("symptoms: entry %q weights sum to %.1f, want 100", e.Kind, sum)
	}
	e.Conditions = slices.Clone(e.Conditions) // the caller keeps its own, unwritten
	for i := range e.Conditions {
		e.Conditions[i].text = e.Conditions[i].Expr.String()
	}
	db.entries = append(db.entries, e)
	db.version++
	return nil
}

// Entries returns the entries.
func (db *DB) Entries() []Entry { return db.entries }

// Render formats the whole database in the DSL accepted by Parse, one
// entry per block in database order. Parse(db.Render()) reconstructs an
// equivalent database — the persistence format for learned entries.
func (db *DB) Render() string {
	var b strings.Builder
	for i, e := range db.entries {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(e.Render())
	}
	return b.String()
}

// Version counts the mutations the database has seen. Caches of
// evaluation results key on it so installing or removing an entry
// (the fleet's symptom-learning loop grows the shared database mid-run)
// invalidates stale evaluations instead of silently hiding new entries.
func (db *DB) Version() int { return db.version }

// Remove deletes all entries of the given kind, reporting how many were
// removed. It supports the paper's incomplete-symptoms-database
// experiments.
func (db *DB) Remove(kind string) int {
	var kept []Entry
	removed := 0
	for _, e := range db.entries {
		if e.Kind == kind {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	db.entries = kept
	if removed > 0 {
		db.version++
	}
	return removed
}

// Binding supplies the template variables for one entry instantiation.
type Binding struct {
	Scope   Scope
	Subject string
	Vars    map[string]string
}

// evalScratch is Evaluate's working memory, recycled across
// evaluations: every binding's variables in substitution order, where
// each binding's end, the buffer every substituted pattern is written
// into, and the true conditions instance after instance. No
// CauseInstance keeps any of it.
type evalScratch struct {
	vars []variable
	ends []int
	buf  []byte
	held []string
}

var evalScratches = sync.Pool{New: func() any { return new(evalScratch) }}

// Evaluate scores every entry against the fact base for each binding of
// its scope, returning cause instances sorted by confidence (descending),
// with ties broken by kind then subject for determinism.
//
// Each binding's variables are ordered once. Each instance writes its
// substituted patterns into one recycled buffer and reads them in place.
// The instances' TrueConditions are carved from one slice of exactly
// their total length, so a retained result keeps nothing else of the
// evaluation.
func (db *DB) Evaluate(fb *FactBase, bindings []Binding) []CauseInstance {
	pairs, conds := 0, 0
	for _, e := range db.entries {
		for _, b := range bindings {
			if b.Scope == e.Scope {
				pairs++
				conds += len(e.Conditions)
			}
		}
	}
	sc := evalScratches.Get().(*evalScratch)
	vars, ends := sc.vars[:0], sc.ends[:0]
	for _, b := range bindings {
		vars = appendVars(vars, b.Vars)
		ends = append(ends, len(vars))
	}
	out := make([]CauseInstance, 0, pairs)
	held := slices.Grow(sc.held[:0], conds)
	for _, e := range db.entries {
		for j, b := range bindings {
			if b.Scope != e.Scope {
				continue
			}
			bound := vars[:ends[j]]
			if j > 0 {
				bound = bound[ends[j-1]:]
			}
			var score float64
			first := len(held)
			sc.buf = sc.buf[:0] // no pattern of an earlier instance is still read
			for _, c := range e.Conditions {
				if c.Expr.eval(fb, bound, &sc.buf) {
					score += c.Weight
					held = append(held, c.exprText())
				}
			}
			out = append(out, CauseInstance{
				Kind:           e.Kind,
				Subject:        b.Subject,
				Confidence:     score,
				Category:       Categorize(score),
				Fix:            e.Fix,
				TrueConditions: held[first:], // its count; re-pointed below
			})
		}
	}
	// held has room for every condition; keep an exactly sized copy.
	kept := make([]string, len(held))
	copy(kept, held)
	clear(held) // the pool keeps no entry's or binding's text alive
	clear(vars)
	sc.vars, sc.ends, sc.held = vars[:0], ends[:0], held[:0]
	evalScratches.Put(sc)
	at := 0
	for i := range out {
		n := len(out[i].TrueConditions)
		out[i].TrueConditions = nil
		if n > 0 {
			out[i].TrueConditions = kept[at : at+n : at+n]
		}
		at += n
	}
	// slices.SortFunc runs sort.Slice's pdqsort step for step without its
	// reflective swapper, so instances that tie keep their old order.
	slices.SortFunc(out, func(a, b CauseInstance) int {
		if a.Confidence != b.Confidence {
			if a.Confidence > b.Confidence {
				return -1
			}
			return 1
		}
		if c := strings.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		return strings.Compare(a.Subject, b.Subject)
	})
	return out
}

// Parse reads entries from the text format administrators author:
//
//	cause san-misconfig-contention scope=volume fix="migrate the new volume" {
//	  25: exists(new-volume-in-pool:$P)
//	  20: ge(metric-anomaly:$V:*, 0.8)
//	  ...
//	}
//
// Lines starting with '#' are comments.
func Parse(src string) (*DB, error) {
	db := NewDB()
	lines := strings.Split(src, "\n")
	i := 0
	for i < len(lines) {
		line := strings.TrimSpace(lines[i])
		if line == "" || strings.HasPrefix(line, "#") {
			i++
			continue
		}
		if !strings.HasPrefix(line, "cause ") {
			return nil, fmt.Errorf("symptoms: line %d: expected 'cause', got %q", i+1, line)
		}
		header := strings.TrimSuffix(strings.TrimPrefix(line, "cause "), "{")
		entry, err := parseHeader(header)
		if err != nil {
			return nil, fmt.Errorf("symptoms: line %d: %w", i+1, err)
		}
		if !strings.HasSuffix(line, "{") {
			return nil, fmt.Errorf("symptoms: line %d: entry header must end with '{'", i+1)
		}
		i++
		for i < len(lines) {
			body := strings.TrimSpace(lines[i])
			if body == "" || strings.HasPrefix(body, "#") {
				i++
				continue
			}
			if body == "}" {
				i++
				break
			}
			colon := strings.Index(body, ":")
			if colon < 0 {
				return nil, fmt.Errorf("symptoms: line %d: expected 'weight: expr'", i+1)
			}
			w, err := strconv.ParseFloat(strings.TrimSpace(body[:colon]), 64)
			if err != nil {
				return nil, fmt.Errorf("symptoms: line %d: bad weight: %w", i+1, err)
			}
			expr, err := ParseExpr(strings.TrimSpace(body[colon+1:]))
			if err != nil {
				return nil, fmt.Errorf("symptoms: line %d: %w", i+1, err)
			}
			entry.Conditions = append(entry.Conditions, Condition{Weight: w, Expr: expr})
			i++
		}
		if err := db.Add(entry); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// escapeFix makes a fix string representable inside the DSL's
// double-quoted form: backslashes and quotes are escaped, newlines
// (unrepresentable in the line-based format) become spaces.
func escapeFix(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", " ")
}

// unquoteFix scans a fix string starting just past its opening quote,
// honoring backslash escapes, and returns the unescaped text plus the
// number of input bytes consumed (through the closing quote).
func unquoteFix(tail string) (string, int, error) {
	var b strings.Builder
	for i := 0; i < len(tail); i++ {
		switch c := tail[i]; c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(tail) {
				return "", 0, fmt.Errorf("dangling escape in fix string")
			}
			i++
			b.WriteByte(tail[i])
		default:
			b.WriteByte(c)
		}
	}
	return "", 0, fmt.Errorf("unterminated fix string")
}

// parseHeader parses `<kind> scope=<scope> [fix="..."]`.
func parseHeader(header string) (Entry, error) {
	e := Entry{}
	rest := strings.TrimSpace(header)
	// Extract fix="..." first since it may contain spaces.
	if idx := strings.Index(rest, `fix="`); idx >= 0 {
		tail := rest[idx+len(`fix="`):]
		fix, consumed, err := unquoteFix(tail)
		if err != nil {
			return e, err
		}
		e.Fix = fix
		rest = strings.TrimSpace(rest[:idx] + tail[consumed:])
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return e, fmt.Errorf("entry header needs kind and scope, got %q", header)
	}
	e.Kind = fields[0]
	for _, f := range fields[1:] {
		if strings.HasPrefix(f, "scope=") {
			e.Scope = Scope(strings.TrimPrefix(f, "scope="))
		}
	}
	switch e.Scope {
	case ScopeVolume, ScopeTable, ScopePool, ScopeServer, ScopeGlobal:
	default:
		return e, fmt.Errorf("entry %q has invalid scope %q", e.Kind, e.Scope)
	}
	return e, nil
}

// MustParse is Parse that panics on error; for the built-in database.
func MustParse(src string) *DB {
	db, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return db
}
