package feedback

import (
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
// each suppressed pair. The tuples it marked keep its id after it dissolves:
// the id is read only through the table's active map, and ids only grow
// within an operator tree, so a dissolved origin's id is inert.
type OriginEntry struct {
	MNS *MNS
	// Expiry is the entry's anchor, kept beside the shared descriptor as a
	// blacklist entry's is (Entry.Expiry).
	Expiry stream.Time
	SigL   Signature // restriction of MNS.Sig to the left input's sources
	SigR   Signature
	// Pending holds the pairs suppressed under this entry.
	Pending []PendingPair
}

// MarkTable holds the Type II machinery of one operator: the origin entries
// of the MNSs suspended here. A mark id is set only on this operator's
// inputs (MarkInput, and the operator's scan of its states at activation)
// and read only here (SuppressedBy).
type MarkTable struct {
	acct    *metrics.Account
	origins table[*OriginEntry]
	active  map[uint64]*OriginEntry // origin mark ids currently suppressing
	// bySide finds the origins whose side signature an input carries (left
	// inputs in slot 0, right in slot 1): one lookup per attribute set, not
	// one comparison per entry. An origin is filed only on the sides its MNS
	// constrains (file).
	bySide [2]fpIndex[*OriginEntry]
	// Deadline caches (DESIGN.md §4): earliest endpoint MinTS among pending
	// suppressed pairs, and earliest result TS among them (OldestPendingTS).
	// The origins keep their own expiry cache.
	pendMin state.MinCache
	pendTS  state.MinCache
}

// NewMarkTable creates an empty table.
func NewMarkTable(acct *metrics.Account) *MarkTable {
	t := &MarkTable{
		acct:    acct,
		origins: newTable[*OriginEntry](acct, metrics.MemMNS),
		active:  make(map[uint64]*OriginEntry),
	}
	t.bySide[0].key = func(e *OriginEntry, buf []SigEntry) []SigEntry { return append(buf, e.SigL...) }
	t.bySide[1].key = func(e *OriginEntry, buf []SigEntry) []SigEntry { return append(buf, e.SigR...) }
	return t
}

// sideOf is an input side's slot in bySide.
func sideOf(left bool) int {
	if left {
		return 0
	}
	return 1
}

// file adds e to (or takes it out of) the side indexes. A side the MNS does
// not constrain is skipped: filed under the empty attribute set the origin
// would match every input there, and an empty side signature matches none.
func (t *MarkTable) file(e *OriginEntry, add bool) {
	for i, sig := range [2]Signature{e.SigL, e.SigR} {
		if len(sig) == 0 {
			continue
		}
		if add {
			t.bySide[i].add(e)
		} else {
			t.bySide[i].remove(e)
		}
	}
}

// Empty reports whether the table has no active origin, letting operators
// skip all Type II work on the hot path.
func (t *MarkTable) Empty() bool { return len(t.origins.list) == 0 }

// ActivateOrigin installs an origin entry for a Type II MNS whose signature
// splits into sigL and sigR over the operator's two inputs, returning nil if
// an entry with the same signature is already active (duplicate suspensions
// are ignored, with the anchor expiry extended).
func (t *MarkTable) ActivateOrigin(m *MNS, sigL, sigR Signature) *OriginEntry {
	if _, ok := t.origins.extend(m); ok {
		return nil
	}
	e := &OriginEntry{MNS: m, Expiry: m.Expiry, SigL: sigL, SigR: sigR}
	t.origins.insert(e)
	t.active[m.ID] = e
	t.file(e, true)
	return e
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
		c.AddMark(e.MNS.ID)
		return true
	})
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
// pairs; ok is false when no pair is parked. It is the mark table's term in
// core.JoinOp.DeferredFloor (DESIGN.md §4).
func (t *MarkTable) OldestPendingTS() (stream.Time, bool) {
	return t.pendTS.Get(func(add func(stream.Time)) {
		for _, e := range t.origins.list {
			for _, p := range e.Pending {
				add(p.ts())
			}
		}
	})
}

const pendingPairBytes = 48

// EntryByID returns the active origin entry with the given mark id.
func (t *MarkTable) EntryByID(id uint64) *OriginEntry { return t.active[id] }

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
			if id := x[0]; t.active[id] != nil {
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
	delete(t.active, e.MNS.ID)
	t.pendMin.Remove(len(e.Pending))
	t.pendTS.Remove(len(e.Pending))
	t.file(e, false)
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
