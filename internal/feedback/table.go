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
// most one per signature, and the owner's one index finds them by it
// (index.holding); a duplicate descriptor extends the held element's anchor
// instead of adding an element. Iteration is always over the
// creation-ordered list, never the index, so runs are deterministic
// (DESIGN.md §2). min caches the earliest anchor for the operator's sweep
// deadline (DESIGN.md §4); anchors move only through extend, so it is exact.
type table[E holder] struct {
	acct *metrics.Account
	mem  metrics.Mem
	list []E
	idx  index[E]
	min  state.MinCache
}

// index is how a table's owner files its elements by value: the one index
// it also matches arrivals with. holding finds the element filed for a
// descriptor's signature.
type index[E holder] interface {
	add(e E)
	remove(e E)
	holding(m *MNS) (E, bool)
}

func newTable[E holder](acct *metrics.Account, mem metrics.Mem, idx index[E]) table[E] {
	return table[E]{acct: acct, mem: mem, idx: idx}
}

// extend looks up the element filed under m's signature. When one exists and
// m expires later, the held element's anchor is raised: duplicates are
// ignored (Sec. III-B) but the anchor must not be forgotten early.
func (t *table[E]) extend(m *MNS) (E, bool) {
	old, ok := t.idx.holding(m)
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
	t.idx.add(e)
	t.acct.Alloc(t.mem, e.mns().SizeBytes())
}

// remove deletes the given held elements in one pass that keeps list order.
func (t *table[E]) remove(es ...E) {
	for _, e := range es {
		t.idx.remove(e)
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
	e, ok := t.idx.holding(m)
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
		t.idx.remove(e)
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
// far; inside a group a hash is filed exactly as long as it holds an
// element, so the index is bounded by what it currently holds. Elements
// constraining nothing (the Ø MNS) keep a slot of their own out of the
// visiting order: they match every composite, first and for free.
type fpIndex[E holder] struct {
	// key appends an element's place to buf, in canonical order: the
	// attributes it constrains and the values it expects there.
	key    func(e E, buf []SigEntry) []SigEntry
	empty  []E
	groups []*fpGroup[E]
	// Scratch: place holds an element's place (add, remove, expects, and a
	// holding's lookup key), vals the values match settles hits against.
	// visit must not call back into the index.
	place []SigEntry
	vals  []stream.Value
}

// fpGroup files the elements of one attribute list by the hash of the values
// they expect. Most hashes are one element's, held in one, in the map slot
// itself: no allocation per element. A hash that two or more share moves to
// many, in filing order, and back to one when a single element is left.
type fpGroup[E holder] struct {
	attrs []predicate.Attr
	one   map[uint64]E
	many  map[uint64][]E
}

func (g *fpGroup[E]) add(h uint64, e E) {
	if els, ok := g.many[h]; ok {
		g.many[h] = append(els, e)
	} else if first, ok := g.one[h]; ok {
		delete(g.one, h)
		g.many[h] = []E{first, e}
	} else {
		g.one[h] = e
	}
}

func (g *fpGroup[E]) remove(h uint64, e E) {
	if first, ok := g.one[h]; ok {
		if first == e {
			delete(g.one, h)
		}
		return
	}
	els := g.many[h]
	i := slices.Index(els, e)
	switch {
	case i < 0:
	case len(els) == 2:
		delete(g.many, h)
		g.one[h] = els[1-i]
	default:
		g.many[h] = slices.Delete(els, i, i+1)
	}
}

// at returns the elements filed under h, in filing order; a lone one is
// handed back in lone.
func (g *fpGroup[E]) at(h uint64, lone *[1]E) []E {
	if e, ok := g.one[h]; ok {
		lone[0] = e
		return lone[:]
	}
	return g.many[h]
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
		g = &fpGroup[E]{attrs: make([]predicate.Attr, len(x.place)), one: make(map[uint64]E), many: make(map[uint64][]E)}
		for i, p := range x.place {
			g.attrs[i] = p.Attr
		}
		x.groups = append(x.groups, g)
	}
	g.add(hashOf(x.place), e)
}

func (x *fpIndex[E]) remove(e E) {
	x.place = x.key(e, x.place[:0])
	if len(x.place) == 0 {
		if i := slices.Index(x.empty, e); i >= 0 {
			x.empty = slices.Delete(x.empty, i, i+1)
		}
		return
	}
	if g := x.group(x.place); g != nil {
		g.remove(hashOf(x.place), e)
	}
}

// find returns the first element filed under place whose descriptor's
// signature is sig.
func (x *fpIndex[E]) find(place []SigEntry, sig Signature) (E, bool) {
	els := x.empty
	var lone [1]E
	if len(place) > 0 {
		g := x.group(place)
		if g == nil {
			return lone[0], false
		}
		els = g.at(hashOf(place), &lone)
	}
	for _, e := range els {
		if slices.Equal(e.mns().Sig, sig) {
			return e, true
		}
	}
	var zero E
	return zero, false
}

// within returns the first element whose descriptor's signature is sig, for
// an index whose places are restrictions of the elements' own signatures
// (the mark table's side signatures): every group whose attributes sig
// constrains is looked up on sig's values there.
func (x *fpIndex[E]) within(sig Signature) (E, bool) {
	for _, e := range x.empty {
		if slices.Equal(e.mns().Sig, sig) {
			return e, true
		}
	}
	var lone [1]E
groups:
	for _, g := range x.groups {
		h := uint64(state.FNVOffset)
		for _, a := range g.attrs {
			v, has := sig.Lookup(a)
			if !has {
				continue groups
			}
			h = state.FoldValue(h, v)
		}
		for _, e := range g.at(h, &lone) {
			if slices.Equal(e.mns().Sig, sig) {
				return e, true
			}
		}
	}
	var zero E
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
	var lone [1]E
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
		for _, e := range g.at(h, &lone) {
			if x.expects(e, x.vals) && !visit(e) {
				break groups
			}
		}
	}
	return comparisons
}
