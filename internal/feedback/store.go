package feedback

import (
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/stream"
)

// header is what a blacklist entry and an origin entry both keep beside the
// items parked under them. It supplies their holder methods.
type header struct {
	MNS *MNS
	// Expiry is the entry's anchor: the descriptor's expiry when the entry
	// was made, raised by duplicate suspensions (table.extend). The
	// descriptor itself may be held elsewhere too, so the entry keeps its own.
	Expiry stream.Time
	// Detected is the detecting consumer's clock when the entry was made
	// (Message.At): the results of its items older than it are the ones a
	// consumer honouring the MNS's claim still counts (Owed).
	Detected stream.Time
	// ord is the entry's creation ordinal within its store: the entry list
	// is ascending in it.
	ord uint64
}

func (h *header) mns() *MNS            { return h.MNS }
func (h *header) anchor() *stream.Time { return &h.Expiry }
func (h *header) head() *header        { return h }

// item is what a store parks under its entries: a Suspended tuple in a
// blacklist, a PendingPair under a mark table's origin.
type item interface {
	// minTS is the item's oldest constituent: the item is fruitless once
	// minTS + window has passed.
	minTS() stream.Time
	// ts is the TS of the oldest result the item can build.
	ts() stream.Time
	// lowerBound is that TS for a consumer honouring the claim of the MNS
	// the item is parked under (Owed); later as in Suspended.lowerBound.
	lowerBound(later bool) stream.Time
	// halves is the item as Owed hands it on: a tuple with b nil, a pair as
	// its two halves.
	halves() (a, b *stream.Composite)
	// size is what the item's storage is charged.
	size() int64
}

// deferral is an entry of a store: a header and the items parked under it.
type deferral[I item] interface {
	holder
	head() *header
	parked() *[]I
}

// store is the one deferral store behind the blacklist and the mark table
// (DESIGN.md §2, §4): a table of entries, each parking items under its MNS,
// and everything the operator asks of those items whatever their kind — the
// window close of each (ParkedMinTS, TakeClosed), the oldest result still
// owed through them (Owing, Owed), and their charge (park, Release). The
// items' two minima are cached; every item enters through park and leaves
// through dropped or TakeClosed, so both stay exact.
type store[E deferral[I], I item] struct {
	entries table[E]
	mem     metrics.Mem // the account row items are charged to
	made    uint64      // the entries made so far: the newest entry's ord
	lo      state.MinCache
	old     state.MinCache
	// gone, when set, is told of every item that leaves the store.
	gone func(I)
}

func newStore[E deferral[I], I item](acct *metrics.Account, mem, itemMem metrics.Mem, idx index[E]) store[E, I] {
	return store[E, I]{entries: newTable[E](acct, mem, idx), mem: itemMem}
}

// Len returns the number of entries.
func (s *store[E, I]) Len() int { return len(s.entries.list) }

// ensure returns the entry for m's signature, made by mk when absent. When
// an entry already exists its anchor is extended to the later of the two:
// the producer "simply ignores" duplicate suspensions (Sec. III-B) but must
// not forget the anchor.
func (s *store[E, I]) ensure(m *MNS, mk func(header) E) (e E, created bool) {
	if old, ok := s.entries.extend(m); ok {
		return old, false
	}
	s.made++
	e = mk(header{MNS: m, Expiry: m.Expiry, ord: s.made})
	s.entries.insert(e)
	return e, true
}

// park adds an item under entry e, charging its storage.
func (s *store[E, I]) park(e E, it I) {
	s.lo.Add(it.minTS())
	s.old.Add(it.ts())
	p := e.parked()
	*p = append(*p, it)
	s.entries.acct.Alloc(s.mem, it.size())
}

// NextExpiry returns the earliest anchor among entries, or NoExpiry when no
// entry can ever expire (none, or only the Ø entry): the store's term in the
// operator's sweep deadline (DESIGN.md §4).
func (s *store[E, I]) NextExpiry() stream.Time { return s.entries.nextExpiry() }

// ParkedMinTS returns the earliest MinTS among parked items; ok is false
// when nothing is parked. The earliest window close of an item is
// MinTS + window.
func (s *store[E, I]) ParkedMinTS() (stream.Time, bool) {
	return s.lo.Get(func(add func(stream.Time)) { s.each(func(it I) { add(it.minTS()) }) })
}

// oldest returns the oldest result TS among parked items; ok is false when
// nothing is parked. No item Owed reports is older.
func (s *store[E, I]) oldest() (stream.Time, bool) {
	return s.old.Get(func(add func(stream.Time)) { s.each(func(it I) { add(it.ts()) }) })
}

// each visits every parked item, in entry then park order.
func (s *store[E, I]) each(visit func(I)) {
	for _, e := range s.entries.list {
		for _, it := range *e.parked() {
			visit(it)
		}
	}
}

// Owing is what Owed reports when no claim is honoured, read from the
// caches: the oldest result TS, NoExpiry when nothing is parked, and how
// many items are.
func (s *store[E, I]) Owing() (oldest stream.Time, n int) {
	if ts, ok := s.oldest(); ok {
		return ts, s.old.Len()
	}
	return NoExpiry, 0
}

// Owed reports each parked item to visit with the oldest result TS it can
// still build, for a consumer that honours the claims c: an item parked
// under an MNS it honours counts with its lowerBound when that is older
// than the entry's detection, and not at all otherwise; any other item with
// its ts (DESIGN.md §4). An item whose results are all at or past below is
// left out, and the whole store when its oldest result is: the caller
// weighs no graveyard entry such a result can read.
func (s *store[E, I]) Owed(c Claims, later bool, below stream.Time, visit OwedFunc) {
	if ts, ok := s.oldest(); !ok || ts >= below {
		return
	}
	for _, e := range s.entries.list {
		items := *e.parked()
		honoured := len(items) > 0 && c != nil && c(e.mns())
		for _, it := range items {
			lb := it.ts()
			if honoured {
				if lb = it.lowerBound(later); lb >= e.head().Detected {
					continue
				}
			}
			if lb < below {
				a, b := it.halves()
				visit(a, b, lb)
			}
		}
	}
}

// Take removes and returns the entry covering m's signature (resume). Its
// items leave with it; the caller releases their charge (Release).
func (s *store[E, I]) Take(m *MNS) (E, bool) {
	e, ok := s.entries.take(m)
	if ok {
		s.dropped(e)
	}
	return e, ok
}

// TakeExpired removes and returns every entry whose anchor has expired, in
// creation order, and nothing, without a scan, while none is due. The
// caller recovers their items (DESIGN.md §2, expiry sweep) and releases
// their charge.
func (s *store[E, I]) TakeExpired(now stream.Time) []E {
	out := s.entries.takeExpired(now)
	for _, e := range out {
		s.dropped(e)
	}
	return out
}

// dropped finishes the removal of an entry: its items leave with it. Only
// their own minima are scanned; the caches go stale only when one of them
// is at or below the store's.
func (s *store[E, I]) dropped(e E) {
	lo, ts := NoExpiry, NoExpiry
	items := *e.parked()
	for _, it := range items {
		if s.gone != nil {
			s.gone(it)
		}
		lo, ts = min(lo, it.minTS()), min(ts, it.ts())
	}
	s.lo.Remove(len(items), lo)
	s.old.Remove(len(items), ts)
}

// Release uncharges the storage of a departed entry's items, once the
// caller is done with them.
func (s *store[E, I]) Release(e E) {
	var n int64
	for _, it := range *e.parked() {
		n += it.size()
	}
	s.entries.acct.Free(s.mem, n)
}

// Taken is an item taken out of a store at its window's close, with the MNS
// of the entry it was parked under: the item carries that MNS's signature.
type Taken[I item] struct {
	Item I
	MNS  *MNS
}

// TakeClosed removes and returns the items whose own window has closed, in
// entry then park order, uncharged, and nothing, without a scan, while none
// is due. The legacy sweep drops them; the exact sweep gives a parked tuple
// a last-gasp catch-up first (DESIGN.md §4).
func (s *store[E, I]) TakeClosed(now, window stream.Time) []Taken[I] {
	if lo, ok := s.ParkedMinTS(); !ok || lo+window > now {
		return nil
	}
	var taken []Taken[I]
	s.lo, s.old = state.MinCache{}, state.MinCache{}
	for _, e := range s.entries.list {
		p := e.parked()
		kept := (*p)[:0]
		for _, it := range *p {
			if it.minTS()+window <= now {
				s.entries.acct.Free(s.mem, it.size())
				if s.gone != nil {
					s.gone(it)
				}
				taken = append(taken, Taken[I]{it, e.mns()})
				continue
			}
			s.lo.Add(it.minTS())
			s.old.Add(it.ts())
			kept = append(kept, it)
		}
		clear((*p)[len(kept):])
		*p = kept
	}
	return taken
}
