// Package dbsys is the database-system substrate of the DIADS
// reproduction: a TPC-H catalog with tablespace-to-SAN-volume mappings,
// optimizer-visible statistics (which can go stale), PostgreSQL-style
// configuration parameters, a buffer-cache model, and a table lock
// manager. The execution simulator (internal/exec) and the optimizer
// (internal/opt) both run against this substrate.
package dbsys

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"diads/internal/topology"
)

// versions is the one source of state versions: a Catalog mutation, a
// Params change or clone, and a stamped Stats value each draw the next
// number, so a version names one state of one object in the process. The
// optimizer memoises plans on them (opt.Optimizer.PlanQuery).
var versions atomic.Uint64

func nextVersion() uint64 { return versions.Add(1) }

// PageSizeKB is the database page size.
const PageSizeKB = 8

// StorageMode distinguishes the two tablespace configurations the paper
// describes in Section 3.1.2.
type StorageMode string

// Tablespace storage modes.
const (
	SystemManaged   StorageMode = "SMS" // file system on a SAN volume
	DatabaseManaged StorageMode = "DMS" // raw SAN volume
)

// Tablespace maps database storage to a SAN volume.
type Tablespace struct {
	Name   string
	Volume topology.ID
	Mode   StorageMode
}

// Table describes one relation and its current (actual) data properties.
type Table struct {
	Name       string
	Tablespace string
	Rows       int64
	RowWidthB  int
}

// Pages returns the number of heap pages the table occupies.
func (t *Table) Pages() int64 {
	bytesPerPage := int64(PageSizeKB * 1024)
	total := t.Rows * int64(t.RowWidthB)
	p := total / bytesPerPage
	if total%bytesPerPage != 0 || p == 0 {
		p++
	}
	return p
}

// Index describes a secondary or primary index.
type Index struct {
	Name    string
	Table   string
	Column  string
	Dropped bool
	// Correlation in [0,1]: 1 means heap fetches through this index are
	// fully sequential, 0 fully random.
	Correlation float64
}

// Catalog is the database schema plus actual data properties. It is safe
// for concurrent use. Every mutation gives it a new version
// (Schema().Version()).
type Catalog struct {
	mu          sync.RWMutex
	version     uint64
	tables      map[string]*Table
	tablespaces map[string]*Tablespace
	schema      Schema // the optimizer-visible part, replaced on a schema change
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		version:     nextVersion(),
		tables:      make(map[string]*Table),
		tablespaces: make(map[string]*Tablespace),
	}
}

// Schema returns the catalog's current optimizer-visible state, read
// under one lock. It stays that state however the catalog changes later.
func (c *Catalog) Schema() Schema {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.schema
	s.version = c.version
	return s
}

// AddTablespace registers a tablespace on a SAN volume.
func (c *Catalog) AddTablespace(name string, volume topology.ID, mode StorageMode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tablespaces[name] = &Tablespace{Name: name, Volume: volume, Mode: mode}
	c.version = nextVersion()
}

// AddTable registers a table.
func (c *Catalog) AddTable(name, tablespace string, rows int64, rowWidthB int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tablespaces[tablespace]; !ok {
		return fmt.Errorf("dbsys: table %q references unknown tablespace %q", name, tablespace)
	}
	c.tables[name] = &Table{Name: name, Tablespace: tablespace, Rows: rows, RowWidthB: rowWidthB}
	c.schema.widths = upsert(c.schema.widths, tableWidth{name, rowWidthB})
	c.version = nextVersion()
	return nil
}

// AddIndex registers an index.
func (c *Catalog) AddIndex(name, table, column string, correlation float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[table]; !ok {
		return fmt.Errorf("dbsys: index %q references unknown table %q", name, table)
	}
	c.schema.indexes = upsert(c.schema.indexes, Index{Name: name, Table: table, Column: column, Correlation: correlation})
	c.version = nextVersion()
	return nil
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, false
	}
	cp := *t
	return &cp, true
}

// MustTable returns the named table or panics.
func (c *Catalog) MustTable(name string) *Table {
	t, ok := c.Table(name)
	if !ok {
		panic(fmt.Sprintf("dbsys: unknown table %q", name))
	}
	return t
}

// Index returns the named index.
func (c *Catalog) Index(name string) (Index, bool) { return c.Schema().Index(name) }

// DropIndex marks an index dropped; it reports whether the index existed.
func (c *Catalog) DropIndex(name string) bool { return c.setDropped(name, true) }

// RestoreIndex clears the dropped flag; it reports whether the index
// existed.
func (c *Catalog) RestoreIndex(name string) bool { return c.setDropped(name, false) }

// setDropped sets an index's dropped flag in a new index list, so every
// Schema already read keeps the old one.
func (c *Catalog) setDropped(name string, dropped bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := search(c.schema.indexes, name)
	if !ok {
		return false
	}
	c.schema.indexes = slices.Clone(c.schema.indexes)
	c.schema.indexes[i].Dropped = dropped
	c.version = nextVersion()
	return true
}

// SetRows changes a table's actual cardinality (a data-property change;
// the optimizer's statistics snapshot does not see it until re-analyzed).
func (c *Catalog) SetRows(table string, rows int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("dbsys: unknown table %q", table)
	}
	t.Rows = rows
	c.version = nextVersion()
	return nil
}

// ScaleRows multiplies a table's actual cardinality by factor. A factor
// that would leave the count negative, NaN or past int64 is refused.
func (c *Catalog) ScaleRows(table string, factor float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("dbsys: unknown table %q", table)
	}
	rows := float64(t.Rows) * factor
	if !(rows >= 0 && rows < math.MaxInt64) {
		return fmt.Errorf("dbsys: scaling %s's %d rows by %g leaves no row count", table, t.Rows, factor)
	}
	t.Rows = int64(rows)
	c.version = nextVersion()
	return nil
}

// VolumeOf returns the SAN volume holding the table's tablespace.
func (c *Catalog) VolumeOf(table string) (topology.ID, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[table]
	if !ok {
		return "", fmt.Errorf("dbsys: unknown table %q", table)
	}
	ts, ok := c.tablespaces[t.Tablespace]
	if !ok {
		return "", fmt.Errorf("dbsys: table %q has unknown tablespace %q", table, t.Tablespace)
	}
	return ts.Volume, nil
}

// Tables returns all table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Tablespaces returns all tablespaces, sorted by name.
func (c *Catalog) Tablespaces() []Tablespace {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Tablespace, 0, len(c.tablespaces))
	for _, ts := range c.tablespaces {
		out = append(out, *ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot captures the optimizer-visible statistics: per-table row counts
// as of "ANALYZE time". A data-property change after the snapshot leaves
// the optimizer estimating from stale numbers, which is how estimated and
// actual record counts diverge. The snapshot carries a fresh version.
func (c *Catalog) Snapshot() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := Stats{Rows: make(map[string]int64, len(c.tables)), version: nextVersion()}
	for n, t := range c.tables {
		s.Rows[n] = t.Rows
	}
	return s
}

// Stats is an optimizer-visible statistics snapshot. Catalog.Snapshot and
// Clone stamp it with a version the optimizer memoises plans on, so a
// stamped value must not be written once it has been planned with: change
// a Clone instead. A hand-built Stats has version 0 and is never memoised.
type Stats struct {
	Rows    map[string]int64
	version uint64
}

// RowsOf returns the snapshot cardinality for a table (0 if absent).
func (s Stats) RowsOf(table string) int64 { return s.Rows[table] }

// Version names the snapshot (0: hand-built, unversioned).
func (s Stats) Version() uint64 { return s.version }

// Clone returns a deep copy of the snapshot under a fresh version.
func (s Stats) Clone() Stats {
	out := Stats{Rows: make(map[string]int64, len(s.Rows)), version: nextVersion()}
	for k, v := range s.Rows {
		out.Rows[k] = v
	}
	return out
}
