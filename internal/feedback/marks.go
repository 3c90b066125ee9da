package feedback

import (
	"cmp"
	"slices"

	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/stream"
)

// PendingPair is one join pair whose production was suppressed by an active
// mark: the left-side and right-side tuples as stored in their states. The
// pair is generated exactly once, when the covering mark entry dissolves
// (resumption or anchor expiry), unless another active mark still covers it
// — in which case it is deferred to that entry.
//
// Recording pairs explicitly — rather than reconstructing them from cursor
// arithmetic at unmark time — makes Type II handling exact under arbitrary
// interleavings of marking, suspension, resumption and re-entrant feedback.
type PendingPair struct {
	L, R state.Entry
}

// OriginEntry lives at the operator where a Type II MNS was suspended: the
// operator whose two input sides together cover the MNS. While active it
// suppresses joins between left-marked and right-marked tuples, recording
// each suppressed pair. The tuples it marked keep its id after it dissolves,
// until Mark drops it: the id is read only through the table's live set,
// and ids only grow within a mark table, so a dissolved origin's id is inert
// for good.
type OriginEntry struct {
	MNS *MNS
	// ID is the entry's mark id: its MNS's id, unless the table already
	// used that id or a later one — a consumer hands on the descriptor its
	// buffer keeps, so a duplicate can make an origin again under the
	// descriptor a dissolved one was made under — and then one past the
	// last id the table used.
	ID uint64
	// Expiry is the entry's anchor, kept beside the shared descriptor as a
	// blacklist entry's is (Entry.Expiry).
	Expiry stream.Time
	// Detected is the detecting consumer's clock when the entry was made, as
	// on a blacklist entry (Entry.Detected).
	Detected stream.Time
	// Left is the operator's left input's sources: the entries of MNS.Sig
	// on them are the left side signature, the others the right one
	// (appendSide).
	Left stream.SourceSet
	// Pending holds the pairs suppressed under this entry.
	Pending []PendingPair
}

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

// MarkTable holds the Type II machinery of one operator: the origin entries
// of the MNSs suspended here. A mark id is set only on this operator's
// inputs (MarkInput, and the operator's scan of its states at activation)
// and read only here (SuppressedBy).
//
// Ids only grow, so origins.list, in creation order, is in id order too:
// EntryByID searches it. live answers the hot question — is an id's origin
// still in the table — in one bit test: it holds a bit per id from liveLo
// on, set while that id's origin is held, and sheds its leading words as
// they empty, so it spans the ids from the oldest held origin to the newest.
type MarkTable struct {
	acct    *metrics.Account
	origins table[*OriginEntry]
	live    []uint64
	liveLo  uint64 // the id of live's first bit, a multiple of 64
	lastID  uint64 // the last mark id an origin took
	// bySide is the origins' one index: it finds the origins whose side
	// signature an input carries (left inputs in slot 0, right in slot 1),
	// one lookup per attribute set, not one comparison per entry, and the
	// origin of a descriptor's signature (sideIndex.holding).
	bySide sideIndex
	// Deadline caches (DESIGN.md §4): earliest endpoint MinTS among pending
	// suppressed pairs, and earliest result TS among them (OldestPendingTS).
	// The origins keep their own expiry cache.
	pendMin state.MinCache
	pendTS  state.MinCache
}

// NewMarkTable creates an empty table.
func NewMarkTable(acct *metrics.Account) *MarkTable {
	t := &MarkTable{acct: acct}
	t.bySide[0].key = func(e *OriginEntry, buf []SigEntry) []SigEntry { return e.appendSide(true, buf) }
	t.bySide[1].key = func(e *OriginEntry, buf []SigEntry) []SigEntry { return e.appendSide(false, buf) }
	t.origins = newTable[*OriginEntry](acct, metrics.MemMNS, &t.bySide)
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

// sideOf is an input side's slot in bySide.
func sideOf(left bool) int {
	if left {
		return 0
	}
	return 1
}

// Empty reports whether the table has no active origin, letting operators
// skip all Type II work on the hot path.
func (t *MarkTable) Empty() bool { return len(t.origins.list) == 0 }

// ActivateOrigin installs an origin entry for a Type II MNS whose signature
// splits over the operator's two inputs, left the left input's sources,
// returning nil if an entry with the same signature is already active
// (duplicate suspensions are ignored, with the anchor expiry extended).
func (t *MarkTable) ActivateOrigin(m *MNS, left stream.SourceSet) *OriginEntry {
	if _, ok := t.origins.extend(m); ok {
		return nil
	}
	t.lastID = max(m.ID, t.lastID+1)
	e := &OriginEntry{MNS: m, ID: t.lastID, Expiry: m.Expiry, Left: left}
	t.origins.insert(e)
	if len(t.live) == 0 {
		t.liveLo = e.ID &^ 63
	}
	w := int((e.ID - t.liveLo) / 64)
	for len(t.live) <= w {
		t.live = append(t.live, 0)
	}
	t.live[w] |= 1 << (e.ID % 64)
	return e
}

// SideSig returns e's side signature, left or right, in the side index's
// scratch: valid until the table is next asked to file, find or match an
// origin.
func (t *MarkTable) SideSig(e *OriginEntry, left bool) Signature {
	x := &t.bySide[sideOf(left)]
	x.place = e.appendSide(left, x.place[:0])
	return x.place
}

// holds reports whether the origin that took mark id is still in the table.
func (t *MarkTable) holds(id uint64) bool {
	if id < t.liveLo {
		return false
	}
	w := (id - t.liveLo) / 64
	return w < uint64(len(t.live)) && t.live[w]&(1<<(id%64)) != 0
}

// MarkInput tags a composite entering the given side with the id of every
// origin whose signature on that side it carries, so suppression applies
// from the first pair of its probe. It returns the attribute comparisons to
// charge.
func (t *MarkTable) MarkInput(c *stream.Composite, left bool) (comparisons int) {
	if len(t.origins.list) == 0 {
		return 0
	}
	return t.bySide[sideOf(left)].match(c, func(e *OriginEntry) bool {
		t.Mark(c, e.ID)
		return true
	})
}

// Mark tags c with the mark id of an active origin of this table. When c's
// list has a power-of-two length — whenever it has doubled since the last
// time — the ids of the origins that have dissolved go first: they suppress
// nothing (SuppressedBy), and no origin takes one again. Each id is then
// looked up a constant number of times on average, and a list never holds
// more than twice its live ids plus one.
func (t *MarkTable) Mark(c *stream.Composite, id uint64) {
	if n := len(c.Marks()); n&(n-1) == 0 {
		c.KeepMarks(t.holds)
	}
	c.AddMark(id)
}

// RecordSuppressed parks a suppressed pair under entry e, charging its
// bookkeeping storage.
func (t *MarkTable) RecordSuppressed(e *OriginEntry, l, r state.Entry) {
	p := PendingPair{L: l, R: r}
	t.pendMin.Add(p.minTS())
	t.pendTS.Add(p.ts())
	e.Pending = append(e.Pending, p)
	t.acct.Alloc(metrics.MemPending, pendingPairBytes)
}

// minTS is the pair's older endpoint: the pair is fruitless once it expires.
func (p PendingPair) minTS() stream.Time { return min(p.L.C.MinTS, p.R.C.MinTS) }

// ts is the timestamp of the result the pair will produce.
func (p PendingPair) ts() stream.Time { return max(p.L.C.TS, p.R.C.TS) }

// NextExpiry returns the earliest origin anchor, or NoExpiry when the table
// holds none — the mark machinery's contribution to the operator's sweep
// deadline (DESIGN.md §4).
func (t *MarkTable) NextExpiry() stream.Time { return t.origins.nextExpiry() }

// NextPendingMinTS returns the earliest endpoint MinTS among pending
// suppressed pairs; ok is false when no pair is parked. The earliest pending
// purge deadline is MinTS + window.
func (t *MarkTable) NextPendingMinTS() (stream.Time, bool) {
	return t.pendMin.Get(func(add func(stream.Time)) {
		for _, e := range t.origins.list {
			for _, p := range e.Pending {
				add(p.minTS())
			}
		}
	})
}

// OldestPendingTS returns the earliest result TS among pending suppressed
// pairs; ok is false when no pair is parked. No pair Owed reports is older.
func (t *MarkTable) OldestPendingTS() (stream.Time, bool) {
	return t.pendTS.Get(func(add func(stream.Time)) {
		for _, e := range t.origins.list {
			for _, p := range e.Pending {
				add(p.ts())
			}
		}
	})
}

// Owing is what Owed reports when no claim is honoured, read from the
// caches: the oldest pending result TS, NoExpiry when no pair is pending,
// and how many pairs are.
func (t *MarkTable) Owing() (oldest stream.Time, n int) {
	if ts, ok := t.OldestPendingTS(); ok {
		return ts, t.pendTS.Len()
	}
	return NoExpiry, 0
}

// Owed reports each pending pair to visit with its result's TS, for a
// consumer that honours the claims c: a pair suppressed under an MNS it
// honours counts only when its result is older than the origin's detection
// (DESIGN.md §4). A pair whose result is at or past below is left out, and
// the whole table when its oldest result is.
func (t *MarkTable) Owed(c Claims, below stream.Time, visit OwedFunc) {
	if ts, ok := t.OldestPendingTS(); !ok || ts >= below {
		return
	}
	for _, e := range t.origins.list {
		honoured := len(e.Pending) > 0 && c != nil && c(e.MNS)
		for _, p := range e.Pending {
			if ts := p.ts(); ts < below && (!honoured || ts < e.Detected) {
				visit(p.L.C, p.R.C, ts)
			}
		}
	}
}

const pendingPairBytes = 48

// EntryByID returns the active origin entry with the given mark id, or nil.
func (t *MarkTable) EntryByID(id uint64) *OriginEntry {
	if !t.holds(id) {
		return nil
	}
	i, _ := slices.BinarySearchFunc(t.origins.list, id, func(e *OriginEntry, id uint64) int { return cmp.Compare(e.ID, id) })
	return t.origins.list[i]
}

// SuppressedBy returns the id of an active origin mark shared by a and b,
// or 0 when the pair is not suppressed and may be joined now. A dissolved
// origin's id is no longer active, so the marks it left behind suppress
// nothing. When several active marks cover the pair it returns the smallest
// id: the choice decides which origin entry records a suppressed pair, so it
// must not depend on anything but the ids. Both mark lists are ascending, so
// one merge finds it.
func (t *MarkTable) SuppressedBy(a, b *stream.Composite) uint64 {
	x, y := a.Marks(), b.Marks()
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] < y[0]:
			x = x[1:]
		case x[0] > y[0]:
			y = y[1:]
		default:
			if id := x[0]; t.holds(id) {
				return id
			}
			x, y = x[1:], y[1:]
		}
	}
	return 0
}

// TakeOrigin removes and returns the origin entry for m's signature. The
// caller generates the entry's pending pairs.
func (t *MarkTable) TakeOrigin(m *MNS) (*OriginEntry, bool) {
	e, ok := t.origins.take(m)
	if ok {
		t.dropped(e)
	}
	return e, ok
}

// TakeExpiredOrigins removes and returns every origin entry whose anchor
// expired, and nothing, without a scan, while none is due; the operator must
// generate their pending pairs.
func (t *MarkTable) TakeExpiredOrigins(now stream.Time) []*OriginEntry {
	out := t.origins.takeExpired(now)
	for _, e := range out {
		t.dropped(e)
	}
	return out
}

// dropped finishes the removal of an origin entry from the table: its mark
// stops suppressing and its pending pairs leave with it.
func (t *MarkTable) dropped(e *OriginEntry) {
	t.live[(e.ID-t.liveLo)/64] &^= 1 << (e.ID % 64)
	if k := slices.IndexFunc(t.live, func(w uint64) bool { return w != 0 }); k < 0 {
		t.live = t.live[:0]
	} else if k > 0 {
		t.live = t.live[:copy(t.live, t.live[k:])]
		t.liveLo += 64 * uint64(k)
	}
	t.pendMin.Remove(len(e.Pending))
	t.pendTS.Remove(len(e.Pending))
}

// PurgePending drops pending pairs with an expired endpoint — their results
// can never contribute to output (fruitless partial results).
func (t *MarkTable) PurgePending(now, window stream.Time) int {
	n := 0
	t.pendMin, t.pendTS = state.MinCache{}, state.MinCache{}
	for _, e := range t.origins.list {
		kept := e.Pending[:0]
		for _, p := range e.Pending {
			if p.minTS()+window <= now {
				t.acct.Free(metrics.MemPending, pendingPairBytes)
				n++
				continue
			}
			t.pendMin.Add(p.minTS())
			t.pendTS.Add(p.ts())
			kept = append(kept, p)
		}
		clear(e.Pending[len(kept):])
		e.Pending = kept
	}
	return n
}

// ReleasePending uncharges the pending-pair storage of a dissolved entry.
func (t *MarkTable) ReleasePending(e *OriginEntry) {
	t.acct.Free(metrics.MemPending, int64(len(e.Pending))*pendingPairBytes)
}
