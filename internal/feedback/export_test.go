package feedback

// Test-only diagnostics: what the structures hold beyond what production
// code ever asks them.

// buckets counts the value hashes currently filed, over all groups, with a
// non-empty Ø slot as one more.
func (x *fpIndex[E]) buckets() int {
	n := 0
	if len(x.empty) > 0 {
		n++
	}
	for _, g := range x.groups {
		n += len(g.one) + len(g.many)
	}
	return n
}

// Buckets returns the number of value hashes the arrival index holds:
// it is bounded by Len.
func (b *Blacklist) Buckets() int { return b.bySig.buckets() }

// Buckets returns the number of value hashes the probe index holds: it
// is bounded by Len.
func (b *Buffer) Buckets() int { return b.byProbe.buckets() }

// Buckets returns the number of value hashes the two side indexes hold:
// it is bounded by two per origin.
func (t *MarkTable) Buckets() int { return t.bySide[0].buckets() + t.bySide[1].buckets() }

// NumOrigins returns the number of active origin entries.
func (t *MarkTable) NumOrigins() int { return len(t.origins.list) }

// NumPending returns the total number of suppressed pairs currently parked.
func (t *MarkTable) NumPending() int {
	n := 0
	for _, e := range t.origins.list {
		n += len(e.Pending)
	}
	return n
}

// SideSig returns e's side signature, left or right, in the side index's
// scratch: valid until the table is next asked to file, find or match an
// origin.
func (t *MarkTable) SideSig(e *OriginEntry, left bool) Signature {
	x := &t.bySide[0]
	if !left {
		x = &t.bySide[1]
	}
	x.place = e.appendSide(left, x.place[:0])
	return x.place
}
