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
// operator whose two input sides together cover the MNS. It suppresses
// joins between left-marked and right-marked tuples until unmarked,
// recording each suppressed pair.
type OriginEntry struct {
	MNS *MNS
	// Expiry is the entry's anchor, kept beside the shared descriptor as a
	// blacklist entry's is (Entry.Expiry).
	Expiry stream.Time
	SigL   Signature // restriction of MNS.Sig to the left input's sources
	SigR   Signature
	// Left / Right list the enrolled (marked) tuples per side, for mark
	// cleanup when the entry dissolves. A tuple may be listed twice (enrolled
	// when the entry marked the state, again on a reinsertion); clearing a
	// mark is idempotent, so the duplicate is harmless.
	Left  []state.Entry
	Right []state.Entry
	// Pending holds the pairs suppressed under this entry.
	Pending []PendingPair
}

// MarkTable holds the Type II machinery of one operator: the origin entries
// of MNSs suspended here, and the relay descriptors of upstream operators
// that received a mark-result feedback — they stamp every produced output
// matching the descriptor's signature with its mark id so the origin
// operator can recognise it.
type MarkTable struct {
	acct    *metrics.Account
	origins table[*OriginEntry]
	relays  table[*MNS]
	active  map[uint64]*OriginEntry // origin mark ids currently suppressing
	// bySide finds the origins whose side signature an input carries (left
	// inputs in slot 0, right in slot 1), as the relays' own signature index
	// finds the relays a result carries: one lookup per attribute set, not
	// one comparison per entry. An origin is filed only on the sides its MNS
	// constrains (file).
	bySide [2]fpIndex[*OriginEntry]
	// Deadline caches (DESIGN.md §4): earliest endpoint MinTS among pending
	// suppressed pairs, and earliest result TS among them (OldestPendingTS).
	// The origins and relays keep their own expiry caches.
	pendMin state.MinCache
	pendTS  state.MinCache
}

// NewMarkTable creates an empty table.
func NewMarkTable(acct *metrics.Account) *MarkTable {
	t := &MarkTable{
		acct:    acct,
		origins: newTable[*OriginEntry](acct, metrics.MemMNS),
		relays:  newTable[*MNS](acct, metrics.MemMNS),
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

// Empty reports whether the table has no active entries of either kind,
// letting operators skip all Type II work on the hot path.
func (t *MarkTable) Empty() bool { return len(t.origins.list) == 0 && len(t.relays.list) == 0 }

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

// Enroll marks a stored tuple under entry e on the given side (left when
// left is true) and lists it for the mark's removal when e dissolves.
func (t *MarkTable) Enroll(e *OriginEntry, left bool, se state.Entry) {
	if left {
		e.Left = append(e.Left, se)
	} else {
		e.Right = append(e.Right, se)
	}
	se.C.AddMark(e.MNS.ID)
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

// NextExpiry returns the earliest expiry among origin and relay entries, or
// NoExpiry when the table holds none — the mark machinery's contribution to
// the operator's sweep deadline (DESIGN.md §4).
func (t *MarkTable) NextExpiry() stream.Time {
	return min(t.origins.nextExpiry(), t.relays.nextExpiry())
}

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
// or 0 when the pair is not suppressed and may be joined now. The exclude id
// lets unmark processing ignore the entry being dissolved. When several
// active marks cover the pair it returns the smallest id: the choice decides
// which origin entry records a suppressed pair, so it must not depend on
// anything but the ids. Both mark lists are ascending, so one merge finds it.
func (t *MarkTable) SuppressedBy(a, b *stream.Composite, exclude uint64) uint64 {
	x, y := a.Marks(), b.Marks()
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] < y[0]:
			x = x[1:]
		case x[0] > y[0]:
			y = y[1:]
		default:
			if id := x[0]; id != exclude && t.active[id] != nil {
				return id
			}
			x, y = x[1:], y[1:]
		}
	}
	return 0
}

// TakeOrigin removes and returns the origin entry for m's signature. The
// caller generates the entry's pending pairs and clears its marks.
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

// AddRelay installs (or extends) a relay descriptor stamping outputs that
// match the MNS signature. Returns true when a new one was installed.
func (t *MarkTable) AddRelay(m *MNS) bool {
	_, ok := t.relays.extend(m)
	if !ok {
		t.relays.insert(m)
	}
	return !ok
}

// RemoveRelay drops the relay descriptor for m's signature, if present.
func (t *MarkTable) RemoveRelay(m *MNS) bool {
	_, ok := t.relays.take(m)
	return ok
}

// PurgeRelays drops expired relay descriptors.
func (t *MarkTable) PurgeRelays(now stream.Time) int { return len(t.relays.takeExpired(now)) }

// StampOutput tags a freshly produced composite with every relay mark whose
// signature it carries; it returns the attribute comparisons to charge.
func (t *MarkTable) StampOutput(c *stream.Composite) (comparisons int) {
	if len(t.relays.list) == 0 {
		return 0
	}
	return t.relays.bySig.match(c, func(m *MNS) bool {
		c.AddMark(m.ID)
		return true
	})
}
