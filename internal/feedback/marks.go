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
	MNS *MNS
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
	// made is the entry's place in creation order: of several origins
	// covering one pair, the earliest made records it.
	made uint64
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

// MarkTable holds the Type II machinery of one operator (the paper's
// mark-result protocol, Sec. IV-B): the origin entries of the MNSs suspended
// here and the pairs each suppressed. Which pair an origin suppresses is
// decided by value, at the pair (Suppressing): nothing is set on a tuple.
type MarkTable struct {
	acct    *metrics.Account
	origins table[*OriginEntry]
	made    uint64 // the origins made so far
	// bySide is the origins' one index: it finds the origins whose side
	// signature an input carries (left inputs in slot 0, right in slot 1),
	// one lookup per attribute set, not one comparison per entry, and the
	// origin of a descriptor's signature (sideIndex.holding).
	bySide sideIndex
	// hits is Suppressing's scratch: the origins the left input matched.
	hits []*OriginEntry
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
	t.made++
	e := &OriginEntry{MNS: m, Expiry: m.Expiry, Left: left, made: t.made}
	t.origins.insert(e)
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
	if len(t.origins.list) == 0 {
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
		if (e == nil || o.made < e.made) && slices.Contains(t.hits, o) {
			e = o
		}
		return true
	})
	return e, comparisons
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
// holds none — the Type II machinery's contribution to the operator's sweep
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

// dropped finishes the removal of an origin entry from the table: its pending
// pairs leave with it.
func (t *MarkTable) dropped(e *OriginEntry) {
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
