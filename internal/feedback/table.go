package feedback

import (
	"slices"
	"strconv"

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

// A buffered or relayed descriptor is its own anchor; blacklist and origin
// entries keep theirs beside the descriptor they share with other tables.
func (m *MNS) anchor() *stream.Time         { return &m.Expiry }
func (e *Entry) anchor() *stream.Time       { return &e.Expiry }
func (e *OriginEntry) anchor() *stream.Time { return &e.Expiry }

// table is the MNS-keyed expiring collection behind the blacklist's entries,
// the MNS buffer and the mark table's origins and relays — the one hash
// organisation the paper prescribes for producer-side blacklists (Sec. IV-B)
// and consumer-side MNS buffers (Sec. III-A). Elements sit in creation
// order, at most one per MNS.Key(); a duplicate descriptor extends the held
// element's anchor instead of adding an element. Iteration is always over
// the creation-ordered list, never the map, so runs are deterministic
// (DESIGN.md §2). min caches the earliest anchor for the operator's sweep
// deadline (DESIGN.md §4); anchors move only through extend, so it is exact.
type table[E holder] struct {
	acct  *metrics.Account
	mem   metrics.Mem
	list  []E
	byKey map[string]E
	min   state.MinCache
}

func newTable[E holder](acct *metrics.Account, mem metrics.Mem) table[E] {
	return table[E]{acct: acct, mem: mem, byKey: make(map[string]E)}
}

// extend looks up the element filed under m's key. When one exists and m
// expires later, the held element's anchor is raised: duplicates are
// ignored (Sec. III-B) but the anchor must not be forgotten early.
func (t *table[E]) extend(m *MNS) (E, bool) {
	old, ok := t.byKey[m.Key()]
	if ok {
		if a := old.anchor(); m.Expiry > *a {
			*a = m.Expiry
			t.min.Invalidate() // the raised anchor may have been the min
		}
	}
	return old, ok
}

// insert appends e, charging its descriptor. The caller has checked with
// extend that the key is free.
func (t *table[E]) insert(e E) {
	m := e.mns()
	t.min.Add(*e.anchor())
	t.list = append(t.list, e)
	t.byKey[m.Key()] = e
	t.acct.Alloc(t.mem, m.SizeBytes())
}

// remove deletes the given held elements in one pass that keeps list order.
func (t *table[E]) remove(es ...E) {
	for _, e := range es {
		m := e.mns()
		delete(t.byKey, m.Key())
		t.acct.Free(t.mem, m.SizeBytes())
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

// take removes and returns the element filed under key.
func (t *table[E]) take(key string) (E, bool) {
	e, ok := t.byKey[key]
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
		m := e.mns()
		delete(t.byKey, m.Key())
		t.acct.Free(t.mem, m.SizeBytes())
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

// fpIndex finds elements by value fingerprint: elements are grouped by the
// attribute set they constrain, and hashed inside each group on the values
// they expect there, so matching a composite costs one lookup per attribute
// set rather than one comparison per element. Groups are visited in
// creation order (determinism, DESIGN.md §2) and are never dropped, so the
// comparisons a match charges depend only on the attribute sets seen so far;
// inside a group a bucket lives exactly as long as it holds an element, so
// the index is bounded by what it currently holds. Elements constraining
// nothing (the Ø MNS) form the group of the empty attribute set, which is
// kept out of the visiting order: it matches every composite, first and for
// free.
type fpIndex[E comparable] struct {
	// key appends an element's place to buf, in canonical order: the
	// attributes it constrains and the values it expects there.
	key     func(e E, buf []SigEntry) []SigEntry
	groups  []*fpGroup[E]
	byAttrs map[string]*fpGroup[E]
	// Scratch for locate and match; neither runs inside the other.
	place []SigEntry
	buf   []byte
}

type fpGroup[E comparable] struct {
	attrs []predicate.Attr
	byVal map[string]*fpBucket[E]
}

// fpBucket holds the elements filed under one fingerprint. The map holds it
// by pointer, so growing or shrinking it writes through instead of storing
// a slice back under a key that would have to be allocated again, and its
// first element sits in the bucket itself: most fingerprints are one
// element's.
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

func newFPIndex[E comparable](key func(E, []SigEntry) []SigEntry) fpIndex[E] {
	return fpIndex[E]{key: key, byAttrs: make(map[string]*fpGroup[E])}
}

// locate returns the group of e's attribute set, creating it on first use,
// and the fingerprint of the values e expects there (scratch, valid until
// the next locate or match).
func (x *fpIndex[E]) locate(e E) (*fpGroup[E], []byte) {
	x.place = x.key(e, x.place[:0])
	gk := x.buf[:0]
	for i, p := range x.place {
		if i > 0 {
			gk = append(gk, ';')
		}
		gk = appendAttr(gk, p.Attr)
	}
	g := x.byAttrs[string(gk)]
	if g == nil {
		g = &fpGroup[E]{attrs: make([]predicate.Attr, len(x.place)), byVal: make(map[string]*fpBucket[E])}
		for i, p := range x.place {
			g.attrs[i] = p.Attr
		}
		x.byAttrs[string(gk)] = g
		if len(g.attrs) > 0 {
			x.groups = append(x.groups, g)
		}
	}
	fp := gk[:0] // the group key has served: the fingerprint reuses its bytes
	for _, p := range x.place {
		fp = appendValue(fp, p.Val)
	}
	x.buf = fp
	return g, fp
}

func (x *fpIndex[E]) add(e E) {
	g, fp := x.locate(e)
	b := g.byVal[string(fp)]
	if b == nil {
		b = new(fpBucket[E])
		b.els = b.first[:0]
		g.byVal[string(fp)] = b
	}
	b.els = append(b.els, e)
	if len(b.els) == 2 {
		// The elements have moved out of the bucket: first must not go on
		// holding one that may leave.
		b.first = [1]E{}
	}
}

func (x *fpIndex[E]) remove(e E) {
	g, fp := x.locate(e)
	b := g.byVal[string(fp)]
	i := slices.Index(b.elements(), e)
	if i < 0 {
		return
	}
	if len(b.els) == 1 {
		delete(g.byVal, string(fp))
		return
	}
	b.els = slices.Delete(b.els, i, i+1)
}

// match visits the Ø slot and then, group by group, the elements whose
// expected values c carries, until visit returns false. It returns the
// attribute comparisons to charge: one per attribute of every group reached.
func (x *fpIndex[E]) match(c *stream.Composite, visit func(E) bool) (comparisons int) {
	if g := x.byAttrs[""]; g != nil {
		for _, e := range g.byVal[""].elements() {
			if !visit(e) {
				return 0
			}
		}
	}
	fp := x.buf
groups:
	for _, g := range x.groups {
		comparisons += len(g.attrs)
		fp = fp[:0]
		for _, a := range g.attrs {
			t := c.Comp(a.Source)
			if t == nil {
				// c lacks the source: the constraint cannot be confirmed, so
				// nothing in the group matches.
				continue groups
			}
			fp = appendValue(fp, t.Vals[a.Col])
		}
		for _, e := range g.byVal[string(fp)].elements() {
			if !visit(e) {
				break groups
			}
		}
	}
	x.buf = fp
	return comparisons
}

// appendValue renders one more value of a fingerprint.
func appendValue(fp []byte, v stream.Value) []byte {
	if len(fp) > 0 {
		fp = append(fp, ';')
	}
	return strconv.AppendInt(fp, int64(v), 10)
}
