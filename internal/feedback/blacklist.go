package feedback

import (
	"cmp"
	"slices"

	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/stream"
)

// Suspended is one tuple parked in a blacklist entry: the composite with
// its stable sequence number, plus the cursor recording the opposite side's
// watermark up to which it has already been joined. Resumption joins it
// with opposite tuples whose sequence exceeds Cursor — exactly the results
// that were suppressed (DESIGN.md §2).
type Suspended struct {
	E      state.Entry
	Cursor uint64
	// Done records opposite-side sequence numbers beyond Cursor whose pairs
	// were already generated while this tuple was suspended: when another
	// tuple's resumption catch-up scans the blacklists and joins this one,
	// the pair must not be regenerated at this tuple's own resumption.
	Done map[uint64]bool
	// Pending lists the opposite-side tuples at or below Cursor whose pairs
	// were NOT actually joined despite the cursor claim: opposite tuples
	// that were suspended (with their own scans short of this tuple) when
	// this tuple was parked from the state. Resumption looks each up by
	// sequence number — it may have resumed, still be suspended, or have
	// retired — and processes it explicitly, deduplicated against Done.
	Pending []state.Entry
}

// lowerBound is the oldest TS a result of the parked tuple can have when the
// opposite side's tuples arrive in timestamp order after the cursor was
// taken (later): only a Pending partner can then be older than the parking.
// A tuple diverted on arrival (Cursor 0) was never probed, so any partner
// may be; so may any partner when the opposite side is fed by a join.
func (s *Suspended) lowerBound(later bool) stream.Time {
	if !later || s.Cursor == 0 {
		return s.E.C.TS
	}
	lb := NoExpiry
	for _, p := range s.Pending {
		lb = min(lb, max(s.E.C.TS, p.C.TS))
	}
	return lb
}

// MarkDone records that the pair with the given opposite sequence was
// generated while suspended.
func (s *Suspended) MarkDone(oppSeq uint64) {
	if s.Done == nil {
		s.Done = make(map[uint64]bool, 2)
	}
	s.Done[oppSeq] = true
}

// IsDone reports whether the pair with the given opposite sequence was
// already generated. A nil record — an input that was never parked — has
// generated nothing.
func (s *Suspended) IsDone(oppSeq uint64) bool { return s != nil && s.Done[oppSeq] }

// Entry is one blacklist entry: an MNS and the suspended super-tuples
// (including same-signature generalizations such as a2 under a1's entry).
type Entry struct {
	MNS *MNS
	// Expiry is the entry's anchor: the descriptor's expiry when the entry
	// was made, raised by duplicate suspensions (Ensure). The descriptor
	// itself may be held elsewhere too, so the entry keeps its own.
	Expiry stream.Time
	// Detected is the detecting consumer's clock when the entry was made
	// (Message.At): the parked tuples' results older than it are the ones a
	// consumer honouring the MNS's claim still counts (Floor).
	Detected stream.Time
	Tuples   []Suspended
	// ord is the entry's creation ordinal within its blacklist: the entry
	// list is ascending in it, which is what lets Walk find its place again
	// after the list changed under it.
	ord uint64
}

// Blacklist is the producer-side store of suspended tuples for one input
// side of a join (B_L or B_R in the paper). Entries share the side's
// sequence space with the active state, so cursors are totally ordered.
type Blacklist struct {
	acct    *metrics.Account
	entries table[*Entry]
	// bySig is the entries' one index, by signature: it finds the entry an
	// arrival's values fall under, making MatchArrival O(# attribute sets)
	// instead of O(# entries), and the entry of a descriptor's signature.
	bySig sigIndex
	// bySeq finds the entry a parked sequence number sits under, so a
	// resumption's pending pairs are looked up, not searched for.
	bySeq map[uint64]*Entry
	// created counts the entries ever made: the newest entry's ord.
	created uint64
	// Deadline cache (DESIGN.md §4): the earliest MinTS among parked tuples.
	parkMin state.MinCache
	// parkTS caches the earliest TS among parked tuples: no result a
	// resumption produces is older (OldestParkedTS).
	parkTS state.MinCache
}

// NewBlacklist creates an empty blacklist charging memory to acct.
func NewBlacklist(acct *metrics.Account) *Blacklist {
	b := &Blacklist{
		acct:  acct,
		bySig: sigIndex{fpIndex: fpIndex[*Entry]{key: func(e *Entry, buf []SigEntry) []SigEntry { return append(buf, e.MNS.Sig...) }}},
		bySeq: make(map[uint64]*Entry),
	}
	b.entries = newTable[*Entry](acct, metrics.MemBlacklist, &b.bySig)
	return b
}

// sigIndex files blacklist entries under their signatures.
type sigIndex struct{ fpIndex[*Entry] }

func (x *sigIndex) holding(m *MNS) (*Entry, bool) { return x.find(m.Sig, m.Sig) }

// Len returns the number of entries.
func (b *Blacklist) Len() int { return len(b.entries.list) }

// NumSuspended returns the total number of parked tuples.
func (b *Blacklist) NumSuspended() int {
	n := 0
	for _, e := range b.entries.list {
		n += len(e.Tuples)
	}
	return n
}

// Entry returns the entry covering m's signature, if any.
func (b *Blacklist) Entry(m *MNS) (*Entry, bool) { return b.bySig.holding(m) }

// Ensure returns the entry for m's signature, creating it when absent. When
// an entry already exists its anchor is extended to the later of the two —
// the producer "simply ignores" duplicate suspensions (Sec. III-B) but must
// not forget the anchor.
func (b *Blacklist) Ensure(m *MNS) (e *Entry, created bool) {
	if old, ok := b.entries.extend(m); ok {
		return old, false
	}
	b.created++
	e = &Entry{MNS: m, Expiry: m.Expiry, ord: b.created}
	b.entries.insert(e)
	return e, true
}

// Park adds a suspended tuple under entry e, charging its storage.
func (b *Blacklist) Park(e *Entry, s Suspended) {
	b.parkMin.Add(s.E.C.MinTS)
	b.parkTS.Add(s.E.C.TS)
	e.Tuples = append(e.Tuples, s)
	b.bySeq[s.E.Seq] = e
	b.acct.Alloc(metrics.MemBlacklist, s.E.C.DeepSizeBytes())
}

// BySeq returns the parked tuple holding the given sequence number, or nil.
// The pointer is valid until the blacklist next changes.
func (b *Blacklist) BySeq(seq uint64) *Suspended {
	if e := b.bySeq[seq]; e != nil {
		for i := range e.Tuples {
			if e.Tuples[i].E.Seq == seq {
				return &e.Tuples[i]
			}
		}
	}
	return nil
}

// NextAnchorExpiry returns the earliest anchor expiry among entries, or
// NoExpiry when no entry can ever expire (empty blacklist, or only the Ø
// entry). This is the blacklist's contribution to the operator's sweep
// deadline (DESIGN.md §4).
func (b *Blacklist) NextAnchorExpiry() stream.Time { return b.entries.nextExpiry() }

// NextTupleMinTS returns the earliest MinTS among parked tuples; ok is false
// when nothing is parked. The earliest parked-tuple purge deadline is
// MinTS + window.
func (b *Blacklist) NextTupleMinTS() (stream.Time, bool) {
	return b.parkMin.Get(func(add func(stream.Time)) {
		for _, e := range b.entries.list {
			for i := range e.Tuples {
				add(e.Tuples[i].E.C.MinTS)
			}
		}
	})
}

// OldestParkedTS returns the earliest TS among parked tuples; ok is false
// when nothing is parked. Every result a resumption here produces contains a
// parked tuple, so none is older, and no tuple Owed reports is.
func (b *Blacklist) OldestParkedTS() (stream.Time, bool) {
	return b.parkTS.Get(func(add func(stream.Time)) {
		for _, e := range b.entries.list {
			for i := range e.Tuples {
				add(e.Tuples[i].E.C.TS)
			}
		}
	})
}

// Owing is what Owed reports when no claim is honoured, read from the
// caches: the oldest parked TS, NoExpiry when nothing is parked, and how
// many tuples are parked.
func (b *Blacklist) Owing() (oldest stream.Time, n int) {
	if ts, ok := b.OldestParkedTS(); ok {
		return ts, b.parkTS.Len()
	}
	return NoExpiry, 0
}

// Owed reports each parked tuple to visit with the oldest result TS it can
// still build, for a consumer that honours the claims c: a tuple parked
// under an MNS it honours counts with Suspended.lowerBound (later as there)
// when that is older than the entry's detection, and not at all otherwise;
// any other tuple with its own TS (DESIGN.md §4). A tuple whose results are
// all at or past below is left out, and the whole blacklist when its oldest
// parked TS is: the caller weighs no graveyard entry such a result can read.
func (b *Blacklist) Owed(c Claims, later bool, below stream.Time, visit OwedFunc) {
	if ts, ok := b.OldestParkedTS(); !ok || ts >= below {
		return
	}
	for _, e := range b.entries.list {
		honoured := len(e.Tuples) > 0 && c != nil && c(e.MNS)
		for i := range e.Tuples {
			t := &e.Tuples[i]
			lb := t.E.C.TS
			if honoured {
				if lb = t.lowerBound(later); lb >= e.Detected {
					continue
				}
			}
			if lb < below {
				visit(t.E.C, nil, lb)
			}
		}
	}
}

// MatchArrival checks a freshly arriving composite against every entry.
// On a hit the arrival should be diverted straight into that entry (the a2
// fast path); comparisons are reported for cost accounting. Matching is by
// value signature: any tuple with the same join attributes (Ø matches
// everything). Entries whose anchor has expired are skipped (they are about
// to be reactivated by the sweep).
func (b *Blacklist) MatchArrival(c *stream.Composite, now stream.Time) (hit *Entry, comparisons int) {
	comparisons = b.bySig.match(c, func(e *Entry) bool {
		if e.Expiry <= now {
			return true
		}
		hit = e
		return false
	})
	return hit, comparisons
}

// Take removes and returns the entry covering m's signature (resume).
func (b *Blacklist) Take(m *MNS) (*Entry, bool) {
	e, ok := b.entries.take(m)
	if ok {
		b.dropped(e)
	}
	return e, ok
}

// TakeExpired removes and returns every entry whose anchor has expired, and
// nothing, without a scan, while none is due. Callers must reactivate the
// surviving tuples (DESIGN.md: expiry sweep).
func (b *Blacklist) TakeExpired(now stream.Time) []*Entry {
	out := b.entries.takeExpired(now)
	for _, e := range out {
		b.dropped(e)
	}
	return out
}

// dropped finishes the removal of an entry from the table: its tuples leave
// with it.
func (b *Blacklist) dropped(e *Entry) {
	lo, ts := NoExpiry, NoExpiry
	for i := range e.Tuples {
		delete(b.bySeq, e.Tuples[i].E.Seq)
		lo, ts = min(lo, e.Tuples[i].E.C.MinTS), min(ts, e.Tuples[i].E.C.TS)
	}
	b.parkMin.Remove(len(e.Tuples), lo)
	b.parkTS.Remove(len(e.Tuples), ts)
}

// Taken is a parked tuple taken out of the blacklist, with the MNS of the
// entry it was parked under: the tuple carries its signature.
type Taken struct {
	Suspended
	MNS *MNS
}

// TakeExpiredTuples removes and returns the parked tuples whose own window
// has closed, in entry-insertion then park order (deterministic), and
// uncharges their storage. The legacy sweep drops them; the exact-delivery
// sweep gives each a last-gasp catch-up first (DESIGN.md §4).
func (b *Blacklist) TakeExpiredTuples(now, window stream.Time) []Taken {
	var taken []Taken
	b.parkMin, b.parkTS = state.MinCache{}, state.MinCache{}
	for _, e := range b.entries.list {
		kept := e.Tuples[:0]
		for _, s := range e.Tuples {
			if s.E.C.MinTS+window <= now {
				b.acct.Free(metrics.MemBlacklist, s.E.C.DeepSizeBytes())
				delete(b.bySeq, s.E.Seq)
				taken = append(taken, Taken{s, e.MNS})
				continue
			}
			b.parkMin.Add(s.E.C.MinTS)
			b.parkTS.Add(s.E.C.TS)
			kept = append(kept, s)
		}
		clear(e.Tuples[len(kept):])
		e.Tuples = kept
	}
	return taken
}

// ReleaseTuples uncharges the storage of an entry's tuples; called when the
// tuples are being reinserted into the active state (which re-charges them).
func (b *Blacklist) ReleaseTuples(e *Entry) {
	for _, s := range e.Tuples {
		b.acct.Free(metrics.MemBlacklist, s.E.C.DeepSizeBytes())
	}
}

// List returns the entries in creation order. The slice is the blacklist's
// own: callers must not change it, and must not park, resume or suspend
// anything while ranging over it — a loop whose body can is a Walk.
func (b *Blacklist) List() []*Entry { return b.entries.list }

// Walk visits, in creation order, the entries that exist now and still exist
// when their turn comes. visit may change the blacklist re-entrantly (a join
// it performs can emit a result whose consumer answers with feedback): the
// walk then finds its place again by creation ordinal, as state.State.Walk
// does by sequence number. Entries created meanwhile are not visited — their
// tuples were reachable elsewhere when the walk began.
func (b *Blacklist) Walk(visit func(*Entry)) {
	last := b.created
	for i := 0; i < len(b.entries.list) && b.entries.list[i].ord <= last; {
		e := b.entries.list[i]
		visit(e)
		if i < len(b.entries.list) && b.entries.list[i] == e {
			i++ // nothing at or before e left the list
			continue
		}
		i, _ = slices.BinarySearchFunc(b.entries.list, e.ord+1, func(x *Entry, ord uint64) int {
			return cmp.Compare(x.ord, ord)
		})
	}
}
