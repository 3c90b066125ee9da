// Package stream defines the data model of the DSMS: application time,
// column values, per-source schemas, base tuples and composite (joined)
// tuples.
//
// Terminology follows Yang & Papadias, "Just-In-Time Processing of
// Continuous Queries" (ICDE 2008):
//
//   - a base tuple is a record arriving from one streaming source;
//   - a composite is a (partial) join result holding one base tuple per
//     participating source;
//   - s is a sub-tuple of t when every component of s also appears in t.
//
// The package sits at the bottom of the layering (DESIGN.md §1): every
// other package speaks in its Time, Value, Tuple and Composite types, and
// application time is integral milliseconds precisely so that runs are
// deterministic — no float drift ever reorders two deadlines.
package stream

import (
	"fmt"
	"strconv"
	"strings"
)

// Time is application time in milliseconds. All window arithmetic is done in
// this unit; wall-clock time never enters the semantics of the engine.
type Time int64

// Common durations expressed in Time units.
const (
	Millisecond Time = 1
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// MaxTime is the latest timestamp an input may carry; none may be negative
// either. Window arithmetic adds windows and disorder bounds to timestamps
// and compares the sums with far-future sentinels (an MNS that never expires
// is at 1<<62), so inputs stay well below them. 1<<60 ms is some 36 million
// years.
const MaxTime Time = 1 << 60

func (t Time) String() string {
	if t%Minute == 0 {
		return fmt.Sprintf("%dm", int64(t/Minute))
	}
	if t%Second == 0 {
		return fmt.Sprintf("%ds", int64(t/Second))
	}
	return fmt.Sprintf("%dms", int64(t))
}

// EpochClock is the periodic application-time clock shared by the adaptive
// controller's decision epochs, the shard dispatcher's barriers and the
// server's checkpoint cadence: the first observed timestamp arms it one
// period ahead, a boundary is due once a timestamp reaches it (inclusive),
// and Advance then moves the boundary past that timestamp in whole periods,
// so a quiet stretch spanning several periods yields one tick, not several.
type EpochClock struct {
	Period Time // must be positive before Advance is called
	next   Time
	armed  bool
}

// Due arms the clock on its first call and reports whether ts has reached
// the current boundary.
func (k *EpochClock) Due(ts Time) bool {
	if !k.armed {
		k.armed, k.next = true, ts+k.Period
		return false
	}
	return ts >= k.next
}

// Advance moves the boundary strictly past ts.
func (k *EpochClock) Advance(ts Time) {
	for k.next <= ts {
		k.next += k.Period
	}
}

// Value is a column value. The paper's workloads use integer domains
// [1..dmax]; using a fixed-width integer keeps tuples compact and makes
// memory accounting exact.
type Value int64

// SourceID identifies a streaming source within a Catalog.
type SourceID int

// SourceSet is a bitmask over SourceIDs, so a plan has at most MaxSources
// sources — far above the paper's maximum of N=8.
type SourceSet uint64

// MaxSources is the most sources a SourceSet can name: ids 0 to 63.
const MaxSources = 64

// Add returns s with the given source included.
func (s SourceSet) Add(id SourceID) SourceSet { return s | 1<<uint(id) }

// Has reports whether id is a member of s.
func (s SourceSet) Has(id SourceID) bool { return s&(1<<uint(id)) != 0 }

// Union returns the set union of s and o.
func (s SourceSet) Union(o SourceSet) SourceSet { return s | o }

// Intersects reports whether s and o share any source.
func (s SourceSet) Intersects(o SourceSet) bool { return s&o != 0 }

// Contains reports whether every member of o is also in s.
func (s SourceSet) Contains(o SourceSet) bool { return s&o == o }

// Empty reports whether the set has no members.
func (s SourceSet) Empty() bool { return s == 0 }

// Count returns the number of sources in the set.
func (s SourceSet) Count() int {
	n := 0
	for v := uint64(s); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// IDs returns the members in ascending order.
func (s SourceSet) IDs() []SourceID {
	ids := make([]SourceID, 0, s.Count())
	for i := SourceID(0); s != 0; i++ {
		if s.Has(i) {
			ids = append(ids, i)
			s &^= 1 << uint(i)
		}
	}
	return ids
}

func (s SourceSet) String() string {
	parts := make([]string, 0, s.Count())
	for _, id := range s.IDs() {
		parts = append(parts, fmt.Sprintf("%d", id))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Schema describes the columns of one streaming source.
type Schema struct {
	Name string
	Cols []string

	id SourceID
}

// NewSchema builds a schema with the given source name and column names.
func NewSchema(name string, cols ...string) *Schema {
	return &Schema{Name: name, Cols: append([]string(nil), cols...)}
}

// ID returns the source's identifier within its catalog. Valid only after
// the schema has been registered with a Catalog.
func (s *Schema) ID() SourceID { return s.id }

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.Cols) }

// Catalog is the set of sources participating in a query.
type Catalog struct {
	schemas []*Schema
	byName  map[string]*Schema
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byName: make(map[string]*Schema)}
}

// Add registers a schema and assigns its SourceID. It returns an error when
// the name is already taken.
func (c *Catalog) Add(s *Schema) (SourceID, error) {
	if _, dup := c.byName[s.Name]; dup {
		return 0, fmt.Errorf("stream: duplicate source %q", s.Name)
	}
	s.id = SourceID(len(c.schemas))
	c.schemas = append(c.schemas, s)
	c.byName[s.Name] = s
	return s.id, nil
}

// MustAdd is Add but panics on error; convenient for static catalogs.
func (c *Catalog) MustAdd(s *Schema) SourceID {
	id, err := c.Add(s)
	if err != nil {
		panic(err)
	}
	return id
}

// Source returns the schema with the given id.
func (c *Catalog) Source(id SourceID) *Schema { return c.schemas[id] }

// NumSources returns the number of registered sources.
func (c *Catalog) NumSources() int { return len(c.schemas) }

// Tuple is a base tuple: one record from one source.
type Tuple struct {
	// ID is unique across the whole run; assigned by the generator or
	// engine at arrival.
	ID uint64
	// Source identifies the origin stream.
	Source SourceID
	// TS is the arrival timestamp; the tuple is alive during [TS, TS+w).
	TS Time
	// Vals holds one Value per schema column.
	Vals []Value
}

// SizeBytes estimates the in-memory footprint of the tuple for the memory
// accounting used by the experiments (struct header + value payload).
func (t *Tuple) SizeBytes() int64 {
	// 8 (ID) + 8 (Source, padded) + 8 (TS) + slice header 24 + payload.
	return 48 + int64(len(t.Vals))*8
}

func (t *Tuple) String() string {
	return fmt.Sprintf("%c%d", 'a'+rune(t.Source), t.ID)
}

// Composite is a (partial) join result: at most one base tuple per source.
// A raw source tuple is wrapped in a single-component composite so that all
// operator inputs share one representation.
type Composite struct {
	// TS is the composite's timestamp: the maximum of its components'
	// timestamps (the earliest time the composite could exist).
	TS Time
	// MinTS is the minimum component timestamp; the composite expires when
	// MinTS + w <= now, because its oldest component can no longer join.
	MinTS Time
	// Comps maps SourceID -> base tuple; nil entries mean the source is
	// absent. The slice is sized to the catalog's source count.
	Comps []*Tuple
	// Sources is the set of sources present, kept in sync with Comps.
	Sources SourceSet
}

// NewComposite wraps a base tuple in a composite, given the catalog size.
func NewComposite(numSources int, t *Tuple) *Composite {
	c := &Composite{
		TS:      t.TS,
		MinTS:   t.TS,
		Comps:   make([]*Tuple, numSources),
		Sources: SourceSet(0).Add(t.Source),
	}
	c.Comps[t.Source] = t
	return c
}

// Join combines two composites with disjoint source sets into a new one.
// The timestamp is the max of the two (per CQL semantics), the expiry
// anchor the min. Join panics if the source sets overlap, which would
// indicate a malformed plan.
func Join(a, b *Composite) *Composite {
	if a.Sources.Intersects(b.Sources) {
		panic(fmt.Sprintf("stream: joining overlapping composites %v and %v", a.Sources, b.Sources))
	}
	c := &Composite{
		TS:      max(a.TS, b.TS),
		MinTS:   min(a.MinTS, b.MinTS),
		Comps:   make([]*Tuple, len(a.Comps)),
		Sources: a.Sources.Union(b.Sources),
	}
	copy(c.Comps, a.Comps)
	for i, t := range b.Comps {
		if t != nil {
			c.Comps[i] = t
		}
	}
	return c
}

// Comp returns the component from the given source, or nil.
func (c *Composite) Comp(id SourceID) *Tuple { return c.Comps[id] }

// Key returns a canonical identity for the composite based on component
// tuple IDs, usable as a map key for result-set comparison in tests.
func (c *Composite) Key() string {
	b := make([]byte, 0, 64)
	for i, sid := range c.Sources.IDs() {
		if i > 0 {
			b = append(b, '|')
		}
		b = strconv.AppendInt(b, int64(sid), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, c.Comps[sid].ID, 10)
	}
	return string(b)
}

// SizeBytes estimates the memory footprint of the composite itself
// (components are accounted once where they are stored, not per reference):
// struct header plus the component pointer slice.
func (c *Composite) SizeBytes() int64 {
	return int64(64) + int64(len(c.Comps))*8
}

// DeepSizeBytes additionally charges the payload of each component. Operator
// states use this: a stored partial result keeps its base tuples alive.
func (c *Composite) DeepSizeBytes() int64 {
	n := c.SizeBytes()
	for _, t := range c.Comps {
		if t != nil {
			n += t.SizeBytes()
		}
	}
	return n
}

func (c *Composite) String() string {
	parts := make([]string, 0, c.Sources.Count())
	for _, sid := range c.Sources.IDs() {
		parts = append(parts, c.Comps[sid].String())
	}
	return strings.Join(parts, "")
}
