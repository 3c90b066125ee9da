package feedback

import (
	"slices"

	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/state"
	"repro/internal/stream"
)

// holder is an element of a table: something filed under one MNS descriptor,
// with an expiry of its own to be scheduled on.
type holder interface {
	comparable
	mns() *MNS
	anchor() *stream.Time
}

func (m *MNS) mns() *MNS         { return m }
func (e *Entry) mns() *MNS       { return e.MNS }
func (e *OriginEntry) mns() *MNS { return e.MNS }

// A buffered descriptor is its own anchor; blacklist and origin entries keep
// theirs beside the descriptor they share with other tables.
func (m *MNS) anchor() *stream.Time         { return &m.Expiry }
func (e *Entry) anchor() *stream.Time       { return &e.Expiry }
func (e *OriginEntry) anchor() *stream.Time { return &e.Expiry }

// table is the expiring collection behind the blacklist's entries, the MNS
// buffer and the mark table's origins — the one hash organisation
// the paper prescribes for producer-side blacklists (Sec. IV-B) and
// consumer-side MNS buffers (Sec. III-A). Elements sit in creation order, at
// most one per signature, and bySig finds them by it; a duplicate descriptor
// extends the held element's anchor instead of adding an element. Iteration
// is always over the creation-ordered list, never the index, so runs are
// deterministic (DESIGN.md §2). min caches the earliest anchor for the
// operator's sweep deadline (DESIGN.md §4); anchors move only through
// extend, so it is exact.
type table[E holder] struct {
	acct  *metrics.Account
	mem   metrics.Mem
	list  []E
	bySig fpIndex[E]
	min   state.MinCache
}

func newTable[E holder](acct *metrics.Account, mem metrics.Mem) table[E] {
	return table[E]{acct: acct, mem: mem, bySig: fpIndex[E]{key: func(e E, buf []SigEntry) []SigEntry {
		return append(buf, e.mns().Sig...)
	}}}
}

// extend looks up the element filed under m's signature. When one exists and
// m expires later, the held element's anchor is raised: duplicates are
// ignored (Sec. III-B) but the anchor must not be forgotten early.
func (t *table[E]) extend(m *MNS) (E, bool) {
	old, ok := t.bySig.find(m.Sig)
	if ok {
		if a := old.anchor(); m.Expiry > *a {
			*a = m.Expiry
			t.min.Invalidate() // the raised anchor may have been the min
		}
	}
	return old, ok
}

// insert appends e, charging its descriptor. The caller has checked with
// extend that the signature is free.
func (t *table[E]) insert(e E) {
	t.min.Add(*e.anchor())
	t.list = append(t.list, e)
	t.bySig.add(e)
	t.acct.Alloc(t.mem, e.mns().SizeBytes())
}

// remove deletes the given held elements in one pass that keeps list order.
func (t *table[E]) remove(es ...E) {
	for _, e := range es {
		t.bySig.remove(e)
		t.acct.Free(t.mem, e.mns().SizeBytes())
	}
	t.min.Remove(len(es))
	left := len(es)
	t.list = slices.DeleteFunc(t.list, func(e E) bool {
		if left == 0 || !slices.Contains(es, e) {
			return false
		}
		left--
		return true
	})
}

// take removes and returns the element filed under m's signature.
func (t *table[E]) take(m *MNS) (E, bool) {
	e, ok := t.bySig.find(m.Sig)
	if ok {
		t.remove(e)
	}
	return e, ok
}

// takeExpired removes and returns, in creation order, every element whose
// anchor has expired; none, without a walk, when the next expiry is later.
// The walk rebuilds the min cache over the survivors.
func (t *table[E]) takeExpired(now stream.Time) []E {
	if t.nextExpiry() > now {
		return nil
	}
	var out []E
	t.min = state.MinCache{}
	kept := t.list[:0]
	for _, e := range t.list {
		if a := *e.anchor(); a > now {
			t.min.Add(a)
			kept = append(kept, e)
			continue
		}
		t.bySig.remove(e)
		t.acct.Free(t.mem, e.mns().SizeBytes())
		out = append(out, e)
	}
	clear(t.list[len(kept):])
	t.list = kept
	return out
}

// nextExpiry returns the earliest anchor, or NoExpiry when the table holds
// nothing.
func (t *table[E]) nextExpiry() stream.Time {
	ts, ok := t.min.Get(func(add func(stream.Time)) {
		for _, e := range t.list {
			add(*e.anchor())
		}
	})
	if !ok {
		return NoExpiry
	}
	return ts
}

// fpIndex finds elements by the values they expect: elements are grouped by
// the attribute list they constrain, and hashed inside each group on the
// values they expect there with state.FoldValue — the value hash the state
// indexes and the shard router use — so matching a composite costs one
// lookup per attribute list rather than one comparison per element. Every
// hit is verified against the element's own values, since two value vectors
// may hash alike. Groups are visited in creation order (determinism,
// DESIGN.md §2), are created only by add and are never dropped, so the
// comparisons a match charges depend only on the attribute lists filed so
// far; inside a group a bucket lives exactly as long as it holds an element,
// so the index is bounded by what it currently holds. Elements constraining
// nothing (the Ø MNS) keep a slot of their own out of the visiting order:
// they match every composite, first and for free.
type fpIndex[E comparable] struct {
	// key appends an element's place to buf, in canonical order: the
	// attributes it constrains and the values it expects there.
	key    func(e E, buf []SigEntry) []SigEntry
	empty  []E
	groups []*fpGroup[E]
	// Scratch: place holds an element's place (add, remove, expects), vals
	// the values a lookup settles hits against (find, match). visit must not
	// call back into the index.
	place []SigEntry
	vals  []stream.Value
}

type fpGroup[E comparable] struct {
	attrs []predicate.Attr
	byVal map[uint64]*fpBucket[E]
}

// fpBucket holds the elements filed under one value hash. The map holds it
// by pointer, so growing or shrinking it writes through instead of storing a
// slice back under its key, and its first element sits in the bucket itself:
// most hashes are one element's.
type fpBucket[E comparable] struct {
	els   []E
	first [1]E
}

// elements lists what the bucket holds; a missing bucket holds nothing.
func (b *fpBucket[E]) elements() []E {
	if b == nil {
		return nil
	}
	return b.els
}

// group returns the group of place's attribute list, or nil when none was
// ever filed.
func (x *fpIndex[E]) group(place []SigEntry) *fpGroup[E] {
	for _, g := range x.groups {
		if slices.EqualFunc(g.attrs, place, func(a predicate.Attr, b SigEntry) bool { return a == b.Attr }) {
			return g
		}
	}
	return nil
}

// hashOf folds place's values, in order.
func hashOf(place []SigEntry) uint64 {
	h := uint64(state.FNVOffset)
	for _, p := range place {
		h = state.FoldValue(h, p.Val)
	}
	return h
}

// expects reports whether e expects exactly vals at its group's attributes:
// the key comparison that settles a hash hit.
func (x *fpIndex[E]) expects(e E, vals []stream.Value) bool {
	x.place = x.key(e, x.place[:0])
	return slices.EqualFunc(x.place, vals, func(p SigEntry, v stream.Value) bool { return p.Val == v })
}

func (x *fpIndex[E]) add(e E) {
	x.place = x.key(e, x.place[:0])
	if len(x.place) == 0 {
		x.empty = append(x.empty, e)
		return
	}
	g := x.group(x.place)
	if g == nil {
		g = &fpGroup[E]{attrs: make([]predicate.Attr, len(x.place)), byVal: make(map[uint64]*fpBucket[E])}
		for i, p := range x.place {
			g.attrs[i] = p.Attr
		}
		x.groups = append(x.groups, g)
	}
	h := hashOf(x.place)
	b := g.byVal[h]
	if b == nil {
		b = new(fpBucket[E])
		b.els = b.first[:0]
		g.byVal[h] = b
	}
	b.els = append(b.els, e)
	if len(b.els) == 2 {
		// The elements have moved out of the bucket: first must not go on
		// holding one that may leave.
		b.first = [1]E{}
	}
}

func (x *fpIndex[E]) remove(e E) {
	x.place = x.key(e, x.place[:0])
	if len(x.place) == 0 {
		if i := slices.Index(x.empty, e); i >= 0 {
			x.empty = slices.Delete(x.empty, i, i+1)
		}
		return
	}
	g := x.group(x.place)
	if g == nil {
		return
	}
	h := hashOf(x.place)
	b := g.byVal[h]
	i := slices.Index(b.elements(), e)
	if i < 0 {
		return
	}
	if len(b.els) == 1 {
		delete(g.byVal, h)
		return
	}
	b.els = slices.Delete(b.els, i, i+1)
}

// find returns the first filed element whose place is exactly place.
func (x *fpIndex[E]) find(place []SigEntry) (E, bool) {
	var zero E
	if len(place) == 0 {
		if len(x.empty) == 0 {
			return zero, false
		}
		return x.empty[0], true
	}
	g := x.group(place)
	if g == nil {
		return zero, false
	}
	x.vals = x.vals[:0]
	for _, p := range place {
		x.vals = append(x.vals, p.Val)
	}
	for _, e := range g.byVal[hashOf(place)].elements() {
		if x.expects(e, x.vals) {
			return e, true
		}
	}
	return zero, false
}

// match visits the Ø slot and then, group by group, the elements whose
// expected values c carries, until visit returns false. It returns the
// attribute comparisons to charge: one per attribute of every group reached.
func (x *fpIndex[E]) match(c *stream.Composite, visit func(E) bool) (comparisons int) {
	for _, e := range x.empty {
		if !visit(e) {
			return 0
		}
	}
groups:
	for _, g := range x.groups {
		comparisons += len(g.attrs)
		x.vals = x.vals[:0]
		h := uint64(state.FNVOffset)
		for _, a := range g.attrs {
			t := c.Comp(a.Source)
			if t == nil {
				// c lacks the source: the constraint cannot be confirmed, so
				// nothing in the group matches.
				continue groups
			}
			x.vals = append(x.vals, t.Vals[a.Col])
			h = state.FoldValue(h, t.Vals[a.Col])
		}
		for _, e := range g.byVal[h].elements() {
			if x.expects(e, x.vals) && !visit(e) {
				break groups
			}
		}
	}
	return comparisons
}
