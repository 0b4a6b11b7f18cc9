package dbsys

import (
	"slices"
	"strings"
)

// Schema is one state of a catalog's optimizer-visible schema: its
// tables' row widths and its indexes, each in name order. A catalog
// replaces these lists on a schema change and never writes them, so a
// Schema once read stays one state without a lock.
type Schema struct {
	version uint64
	widths  []tableWidth
	indexes []Index
	// over, when not 0, is 1 + the position of an index whose Dropped
	// flag reads as overDropped: a change laid over the state read.
	over        int
	overDropped bool
}

// tableWidth is one table's row width in bytes.
type tableWidth struct {
	table string
	bytes int
}

// Version is the catalog version the schema was read at; 0 once With
// has laid a change over it.
func (s Schema) Version() uint64 { return s.version }

// With returns the schema with the named index dropped or restored,
// leaving the catalog as it is. It reports whether the index exists.
func (s Schema) With(index string, dropped bool) (Schema, bool) {
	i, ok := search(s.indexes, index)
	if ok {
		s.version, s.over, s.overDropped = 0, i+1, dropped
	}
	return s, ok
}

// Index returns the named index.
func (s Schema) Index(name string) (Index, bool) {
	if i, ok := search(s.indexes, name); ok {
		return s.at(i), true
	}
	return Index{}, false
}

// IndexOn returns a usable (non-dropped) index on table.column, the
// first by name if several are.
func (s Schema) IndexOn(table, column string) (Index, bool) {
	for i := range s.indexes {
		if ix := s.at(i); ix.Table == table && ix.Column == column && !ix.Dropped {
			return ix, true
		}
	}
	return Index{}, false
}

// at returns the index at position i, with the laid-over change.
func (s Schema) at(i int) Index {
	ix := s.indexes[i]
	if i+1 == s.over {
		ix.Dropped = s.overDropped
	}
	return ix
}

// RowWidth returns the named table's row width in bytes.
func (s Schema) RowWidth(table string) (int, bool) {
	if i, ok := search(s.widths, table); ok {
		return s.widths[i].bytes, true
	}
	return 0, false
}

// keyed is an element of a list in name order.
type keyed interface{ key() string }

func (ix Index) key() string     { return ix.Name }
func (w tableWidth) key() string { return w.table }

// search finds name's position in a list in name order.
func search[T keyed](list []T, name string) (int, bool) {
	return slices.BinarySearchFunc(list, name, func(e T, name string) int { return strings.Compare(e.key(), name) })
}

// upsert returns list with v in its name's place, in a new array: a
// Schema already read keeps the old one.
func upsert[T keyed](list []T, v T) []T {
	i, found := search(list, v.key())
	if !found {
		return slices.Insert(slices.Clip(list), i, v)
	}
	list = slices.Clone(list)
	list[i] = v
	return list
}
