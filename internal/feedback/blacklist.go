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

// A parked tuple is a store item (store.go): its composite's window, TS and
// charge, handed on with no second half.
func (s Suspended) minTS() stream.Time               { return s.E.C.MinTS }
func (s Suspended) ts() stream.Time                  { return s.E.C.TS }
func (s Suspended) halves() (a, b *stream.Composite) { return s.E.C, nil }
func (s Suspended) size() int64                      { return s.E.C.DeepSizeBytes() }

// lowerBound is the oldest TS a result of the parked tuple can have when the
// opposite side's tuples arrive in timestamp order after the cursor was
// taken (later): only a Pending partner can then be older than the parking.
// A tuple diverted on arrival (Cursor 0) was never probed, so any partner
// may be; so may any partner when the opposite side is fed by a join.
func (s Suspended) lowerBound(later bool) stream.Time {
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
// Its ord is what lets Walk find its place again after the entry list
// changed under it.
type Entry struct {
	header
	Tuples []Suspended
}

func (e *Entry) parked() *[]Suspended { return &e.Tuples }

// Blacklist is the producer-side store of suspended tuples for one input
// side of a join (B_L or B_R in the paper). Entries share the side's
// sequence space with the active state, so cursors are totally ordered.
type Blacklist struct {
	store[*Entry, Suspended]
	// bySig is the entries' one index, by signature: it finds the entry an
	// arrival's values fall under, making MatchArrival O(# attribute sets)
	// instead of O(# entries), and the entry of a descriptor's signature.
	bySig sigIndex
	// bySeq finds the entry a parked sequence number sits under, so a
	// resumption's pending pairs are looked up, not searched for.
	bySeq map[uint64]*Entry
}

// NewBlacklist creates an empty blacklist charging memory to acct.
func NewBlacklist(acct *metrics.Account) *Blacklist {
	b := &Blacklist{
		bySig: sigIndex{fpIndex: fpIndex[*Entry]{key: func(e *Entry, buf []SigEntry) []SigEntry { return append(buf, e.MNS.Sig...) }}},
		bySeq: make(map[uint64]*Entry),
	}
	b.store = newStore[*Entry, Suspended](acct, metrics.MemBlacklist, metrics.MemBlacklist, &b.bySig)
	b.gone = func(s Suspended) { delete(b.bySeq, s.E.Seq) }
	return b
}

// sigIndex files blacklist entries under their signatures.
type sigIndex struct{ fpIndex[*Entry] }

func (x *sigIndex) holding(m *MNS) (*Entry, bool) { return x.find(m.Sig, m.Sig) }

// Entry returns the entry covering m's signature, if any.
func (b *Blacklist) Entry(m *MNS) (*Entry, bool) { return b.bySig.holding(m) }

// Ensure returns the entry for m's signature, creating it when absent, and
// extends a held entry's anchor to m's (store.ensure).
func (b *Blacklist) Ensure(m *MNS) (e *Entry, created bool) {
	return b.ensure(m, func(h header) *Entry { return &Entry{header: h} })
}

// Park adds a suspended tuple under entry e, charging its storage.
func (b *Blacklist) Park(e *Entry, s Suspended) {
	b.park(e, s)
	b.bySeq[s.E.Seq] = e
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
	last := b.made
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
