package feedback

import (
	"slices"

	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/stream"
)

// PendingPair is one joining pair whose result an active origin suppressed:
// the left-side and right-side tuples as stored in their states. The pair is
// generated exactly once, when the covering origin dissolves (resumption or
// anchor expiry), unless another active origin still covers it — in which
// case it is deferred to that entry.
//
// Recording pairs explicitly — rather than reconstructing them from cursor
// arithmetic at unmark time — makes Type II handling exact under arbitrary
// interleavings of suppression, suspension, resumption and re-entrant
// feedback.
type PendingPair struct {
	L, R state.Entry
}

// OriginEntry lives at the operator where a Type II MNS was suspended: the
// operator whose two input sides together cover the MNS. While active it
// suppresses the results of the joining pairs whose left input carries its
// left side signature and whose right input carries its right one
// (Suppressing), recording each suppressed pair. The rule reads values
// only, so nothing of the entry stays on a tuple once it dissolves.
type OriginEntry struct {
	header
	// Left is the operator's left input's sources: the entries of MNS.Sig
	// on them are the left side signature, the others the right one
	// (appendSide).
	Left stream.SourceSet
	// Pending holds the pairs suppressed under this entry.
	Pending []PendingPair
}

func (e *OriginEntry) parked() *[]PendingPair { return &e.Pending }

// appendSide appends the entry's side signature, left or right, to buf:
// MNS.Sig's entries on that input's sources, in Sig's order.
func (e *OriginEntry) appendSide(left bool, buf []SigEntry) []SigEntry {
	for _, se := range e.MNS.Sig {
		if e.Left.Has(se.Attr.Source) == left {
			buf = append(buf, se)
		}
	}
	return buf
}

// MarkTable holds the Type II machinery of one operator (the paper's
// mark-result protocol, Sec. IV-B): the origin entries of the MNSs suspended
// here and the pairs each suppressed. Which pair an origin suppresses is
// decided by value, at the pair (Suppressing): nothing is set on a tuple.
type MarkTable struct {
	store[*OriginEntry, PendingPair]
	// bySide is the origins' one index: it finds the origins whose side
	// signature an input carries (left inputs in slot 0, right in slot 1),
	// one lookup per attribute set, not one comparison per entry, and the
	// origin of a descriptor's signature (sideIndex.holding).
	bySide sideIndex
	// hits is Suppressing's scratch: the origins the left input matched.
	hits []*OriginEntry
}

// NewMarkTable creates an empty table.
func NewMarkTable(acct *metrics.Account) *MarkTable {
	t := &MarkTable{}
	t.bySide[0].key = func(e *OriginEntry, buf []SigEntry) []SigEntry { return e.appendSide(true, buf) }
	t.bySide[1].key = func(e *OriginEntry, buf []SigEntry) []SigEntry { return e.appendSide(false, buf) }
	t.store = newStore[*OriginEntry, PendingPair](acct, metrics.MemMNS, metrics.MemPending, &t.bySide)
	return t
}

// sideIndex files each origin under its side signatures, left in slot 0 and
// right in slot 1, on the sides its MNS constrains only: filed under the
// empty attribute set the origin would match every input there, and an
// empty side signature matches none.
type sideIndex [2]fpIndex[*OriginEntry]

func (x *sideIndex) add(e *OriginEntry) {
	for i := range x {
		if e.constrains(i == 0) {
			x[i].add(e)
		}
	}
}

func (x *sideIndex) remove(e *OriginEntry) {
	for i := range x {
		if e.constrains(i == 0) {
			x[i].remove(e)
		}
	}
}

// constrains reports whether the entry's side signature on that side is
// non-empty.
func (e *OriginEntry) constrains(left bool) bool {
	return slices.ContainsFunc(e.MNS.Sig, func(se SigEntry) bool { return e.Left.Has(se.Attr.Source) == left })
}

// holding finds the origin of m's signature under a side signature, which
// is a restriction of it, verified on the full signature. The right side is
// asked after a miss on the left: an origin whose MNS leaves the left side
// unconstrained is filed on the right only.
func (x *sideIndex) holding(m *MNS) (*OriginEntry, bool) {
	if e, ok := x[0].within(m.Sig); ok {
		return e, ok
	}
	return x[1].within(m.Sig)
}

// Empty reports whether the table has no active origin, letting operators
// skip all Type II work on the hot path.
func (t *MarkTable) Empty() bool { return t.Len() == 0 }

// ActivateOrigin installs an origin entry for a Type II MNS whose signature
// splits over the operator's two inputs, left the left input's sources,
// returning nil if an entry with the same signature is already active
// (duplicate suspensions are ignored, with the anchor expiry extended).
func (t *MarkTable) ActivateOrigin(m *MNS, left stream.SourceSet) *OriginEntry {
	e, created := t.ensure(m, func(h header) *OriginEntry { return &OriginEntry{header: h, Left: left} })
	if !created {
		return nil
	}
	return e
}

// Suppressing returns the active origin that suppresses the joining pair of
// left input l and right input r, or nil: of the origins whose left side
// signature l carries and whose right side signature r carries, the earliest
// made. An origin with an empty side signature suppresses nothing: it is
// filed on its constrained side only. Both sides are found by lookup, and the
// right one is asked only when the left found an origin; it returns the
// attribute comparisons the lookups charge.
func (t *MarkTable) Suppressing(l, r *stream.Composite) (e *OriginEntry, comparisons int) {
	if len(t.entries.list) == 0 {
		return nil, 0
	}
	t.hits = t.hits[:0]
	comparisons = t.bySide[0].match(l, func(o *OriginEntry) bool {
		t.hits = append(t.hits, o)
		return true
	})
	if len(t.hits) == 0 {
		return nil, comparisons
	}
	comparisons += t.bySide[1].match(r, func(o *OriginEntry) bool {
		if (e == nil || o.ord < e.ord) && slices.Contains(t.hits, o) {
			e = o
		}
		return true
	})
	return e, comparisons
}

// RecordSuppressed parks a suppressed pair under entry e, charging its
// bookkeeping storage.
func (t *MarkTable) RecordSuppressed(e *OriginEntry, l, r state.Entry) {
	t.park(e, PendingPair{L: l, R: r})
}

// minTS is the pair's older endpoint: the pair is fruitless once it expires.
func (p PendingPair) minTS() stream.Time { return min(p.L.C.MinTS, p.R.C.MinTS) }

// ts is the timestamp of the result the pair will produce; it is the pair's
// lowerBound too, whatever the claim.
func (p PendingPair) ts() stream.Time                  { return max(p.L.C.TS, p.R.C.TS) }
func (p PendingPair) lowerBound(bool) stream.Time      { return p.ts() }
func (p PendingPair) halves() (a, b *stream.Composite) { return p.L.C, p.R.C }
func (p PendingPair) size() int64                      { return pendingPairBytes }

const pendingPairBytes = 48
