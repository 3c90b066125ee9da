// Package state implements sliding-window operator states: the S_A, S_B,
// S_AB, ... rectangles of the paper's execution plans. A State stores
// composites, purges them when their oldest component leaves the window,
// and hands out *stable sequence numbers* that the JIT resumption protocol
// uses as exact "already joined up to here" cursors.
//
// Sequence discipline (see DESIGN.md §2): every tuple entering one side of a
// join — whether it lands in the active state or is diverted to a blacklist
// — draws a sequence number from that side's single monotonic counter and
// keeps it for life. A suspended tuple's cursor is the opposite side's
// watermark at deactivation; resumption joins it with opposite tuples whose
// sequence exceeds the cursor. This reproduces the paper's worked example
// (a1 re-joined with b2–b4, a2 with b1–b4) and guarantees exactly-once
// result generation.
//
// One layout (see DESIGN.md §3): a State files its entries in one slice
// sorted by (key hash, Seq), hashed at the columns SetKey names — the
// exact-equi columns of the crossing predicates. A probe walks only the run
// sharing the probing tuple's key hash (plus hash collisions, which the
// caller's predicate evaluation rejects). A State with an empty key hashes
// every composite alike, so its single run is arrival order and a walk of it
// is the linear scan. Every composite a State stores or is probed by carries
// all of its key's sources; Key.Hash refuses one that does not.
//
// The same run type is held once more per attribute set a feedback
// signature has been looked up by (WalkCarrying, RemoveIf): a suspension
// finds the stored tuples carrying its values there instead of testing the
// signature against every entry. Exact mode's graveyard (DESIGN.md §4) is a
// State too, keyed on the crossing equi-key whether or not the live one is
// and charged to its own memory row.
//
// Band predicates (predicate.Eq.Tol > 0, DESIGN.md §8) never enter a key:
// hash equality would wrongly reject within-band pairs. A mixed conjunction
// keys on its exact-equi subset — the index then over-approximates the
// candidate set and the caller's full predicate evaluation (band atoms
// included) does the final filtering — while a pure-band conjunction yields
// no key at all, leaving the state scan-only. Correctness is unaffected
// either way; only the probe's candidate count degrades (measured in
// DESIGN.md §8; today's performance harness is bench/README.md).
package state

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// Key is the ordered list of columns whose values form a State's equi-join
// index key. Probing and stored sides use aligned keys (the two halves of
// predicate.Conj.EquiKeyCols), so equal value vectors — exactly the pairs
// satisfying every crossing equi predicate — produce equal hashes.
type Key []predicate.Attr

// FNV-1a constants (64-bit).
const (
	// FNVOffset seeds the value-hash fold (FoldValue).
	FNVOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FoldValue folds one column value into a running 64-bit FNV-1a hash;
// seed with FNVOffset. It is the single definition of the value hash,
// shared by the §3 state index and the §5 shard router, so a stored
// composite and a routed tuple always hash a value identically.
func FoldValue(h uint64, v stream.Value) uint64 {
	u := uint64(v)
	for i := 0; i < 64; i += 8 {
		h ^= (u >> uint(i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// Hash folds the composite's values at the key columns into a 64-bit FNV-1a
// hash; an empty key hashes every composite to FNVOffset. A composite
// lacking one of the key sources cannot be filed or probed by the key, and
// none reaches a State: every composite a wired operator stores or probes
// with carries all of its port's sources. Hash panics on one.
func (k Key) Hash(c *stream.Composite) uint64 {
	h := uint64(FNVOffset)
	for _, a := range k {
		t := c.Comp(a.Source)
		if t == nil {
			panic(fmt.Sprintf("state: composite %v lacks a key source", c.Sources))
		}
		h = FoldValue(h, t.Vals[a.Col])
	}
	return h
}

// Entry is a stored composite together with its stable sequence number.
type Entry struct {
	C   *stream.Composite
	Seq uint64
}

// Bound constrains one column to a value. A list of them is what a feedback
// value signature is made of (feedback.Signature), and what WalkCarrying
// finds stored tuples by.
type Bound struct {
	Attr predicate.Attr
	Val  stream.Value
}

// Side is the shared sequence space for one input side of a join: entries of
// the active State, of the blacklist and of the graveyard on that side all carry
// numbers drawn from the same counter (by core, before the probe), so
// cursors are totally ordered across the three.
type Side struct {
	seq uint64
}

// Next draws the next sequence number.
func (s *Side) Next() uint64 {
	s.seq++
	return s.seq
}

// Watermark returns the highest sequence number issued so far.
func (s *Side) Watermark() uint64 { return s.seq }

// MinCache caches the minimum of a changing multiset of times — the one
// implementation behind every deadline cache NextDeadline reads (state
// MinTS, blacklist anchors and parked tuples, MNS buffer, mark table;
// DESIGN.md §4). The owner reports each insertion (Add), removal (Remove)
// and raised value (Invalidate); the minimum is exact while values are only
// added or removed above it, and is recomputed on the next Get after
// anything that can raise it.
// Every value a cache covers belongs to its owner and changes only through
// it, so what Get returns is always exact.
type MinCache struct {
	min   stream.Time
	n     int
	dirty bool
}

// Add folds a newly inserted value into the cache.
func (c *MinCache) Add(t stream.Time) {
	if c.n == 0 {
		c.min, c.dirty = t, false
	} else if !c.dirty && t < c.min {
		c.min = t
	}
	c.n++
}

// Remove notes that k cached values left the multiset, the least of them
// least. The minimum goes stale only when least is at or below it: a value
// above the minimum can leave without the rescan every Get would otherwise
// pay for over what stays.
func (c *MinCache) Remove(k int, least stream.Time) {
	if k > 0 {
		c.n -= k
		if least <= c.min {
			c.dirty = true
		}
	}
}

// Len returns how many values the multiset holds.
func (c *MinCache) Len() int { return c.n }

// Invalidate notes that a cached value was raised: the next Get recomputes.
func (c *MinCache) Invalidate() { c.dirty = true }

// Get returns the minimum; ok is false when the multiset is empty. A stale
// cache is rebuilt first from each, which must call add once per current
// value.
func (c *MinCache) Get(each func(add func(stream.Time))) (min stream.Time, ok bool) {
	if c.n > 0 && c.dirty {
		c.n = 0
		each(c.Add)
	}
	return c.min, c.n > 0
}

// State is one sliding-window operator state.
type State struct {
	name string
	mem  metrics.Mem // the account row stored bytes are charged to
	acct *metrics.Account
	// runs[0] files the entries under the state's key (SetKey), the run
	// probes walk. The rest were built by lookup, one per attribute set a
	// signature was ever looked up by, and are never dropped: what a lookup
	// costs depends only on the attribute sets seen. Every mutation keeps
	// all of them current.
	runs    []*run
	version uint64 // incremented on every mutation; a walk re-finds its place when it moves
	// min caches the smallest MinTS among the entries so the engine's
	// deadline scheduler can ask "when does the next tuple expire" in O(1)
	// (DESIGN.md §4).
	min MinCache
}

// run is one filing of a state's entries: sorted by the hash of their
// values at key, then by Seq.
type run struct {
	key  Key
	ents []hashed // ascending (h, Seq)
}

type hashed struct {
	h uint64
	Entry
}

func cmpHashed(a, b hashed) int {
	if c := cmp.Compare(a.h, b.h); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// search returns the index of the first entry at or after (h, seq).
func (r *run) search(h, seq uint64) int {
	i, _ := slices.BinarySearchFunc(r.ents, hashed{h: h, Entry: Entry{Seq: seq}}, cmpHashed)
	return i
}

func (r *run) insert(e Entry) {
	h := r.key.Hash(e.C)
	r.ents = slices.Insert(r.ents, r.search(h, e.Seq), hashed{h: h, Entry: e})
}

// remove recomputes the entry's place from its composite; key values are
// immutable while stored, so the hash is stable.
func (r *run) remove(e Entry) {
	i := r.search(r.key.Hash(e.C), e.Seq)
	r.ents = slices.Delete(r.ents, i, i+1)
}

// New creates a state labelled name (e.g. "S_AB") charging the bytes it
// stores to acct's mem row; acct may be shared with the blacklists on the
// same join side.
func New(name string, mem metrics.Mem, acct *metrics.Account) *State {
	return &State{name: name, mem: mem, acct: acct, runs: []*run{{}}}
}

// SetKey configures the key the entries are filed and probed under. It must
// be called before any entry is inserted; without it, or with an empty key,
// the state is one run in arrival order.
func (s *State) SetKey(k Key) {
	if s.Len() > 0 {
		panic(fmt.Sprintf("state: SetKey on non-empty state %s", s.name))
	}
	s.runs[0].key = slices.Clone(k)
}

// Indexed reports whether the state is filed under an equi-join key.
func (s *State) Indexed() bool { return len(s.runs[0].key) > 0 }

// Len returns the number of entries.
func (s *State) Len() int { return len(s.runs[0].ents) }

// Empty reports whether the state holds no entries.
func (s *State) Empty() bool { return s.Len() == 0 }

// MinTS returns the smallest MinTS among the entries; ok is false when the
// state is empty. The earliest window-expiry deadline of the state is
// MinTS() + window (see JoinOp.NextDeadline, DESIGN.md §4).
func (s *State) MinTS() (stream.Time, bool) {
	return s.min.Get(func(add func(stream.Time)) {
		for _, e := range s.runs[0].ents {
			add(e.C.MinTS)
		}
	})
}

// Reinsert files an entry with a pre-drawn sequence number at its place in
// every run. Used for fresh inputs (whose sequence is drawn at probe start,
// before insertion), for tuples reactivated out of a blacklist (which keep
// their original sequence for life), and for entries retired into a
// graveyard, in any order.
func (s *State) Reinsert(e Entry) {
	s.version++
	s.min.Add(e.C.MinTS)
	s.acct.Alloc(s.mem, e.C.DeepSizeBytes())
	for _, r := range s.runs {
		r.insert(e)
	}
}

// Walk visits, in ascending sequence order and until visit returns false,
// the entries with sequence strictly greater than after whose key hashes to
// h: with an empty key, every entry when h is FNVOffset. It is the probe
// loop of core's live and graveyard probes, and tolerates visit mutating the
// state re-entrantly (suspension feedback triggered by an emitted result):
// the walk then resumes after the last sequence visited.
func (s *State) Walk(h, after uint64, visit func(Entry) bool) {
	s.walk(s.runs[0], h, after, visit)
}

func (s *State) walk(r *run, h, after uint64, visit func(Entry) bool) {
	ver, i := s.version, r.search(h, after+1)
	for i < len(r.ents) && r.ents[i].h == h {
		e := r.ents[i].Entry
		if !visit(e) {
			return
		}
		if i++; ver != s.version {
			ver, i = s.version, r.search(h, e.Seq+1)
		}
	}
}

// Holds reports whether the state holds e, found by its composite's key
// hash and its sequence number.
func (s *State) Holds(e Entry) bool {
	r := s.runs[0]
	h := r.key.Hash(e.C)
	i := r.search(h, e.Seq)
	return i < len(r.ents) && r.ents[i].h == h && r.ents[i].Seq == e.Seq
}

// Purge removes the entries whose oldest component has expired by now,
// MinTS + w <= now, hands each to gone unless gone is nil, and returns how
// many it removed. gone must not touch s. It runs on every arrival, so the
// cached minimum spares the pass when nothing is due.
func (s *State) Purge(now, w stream.Time, gone func(Entry)) int {
	if ts, ok := s.MinTS(); !ok || ts+w > now {
		return 0
	}
	return s.filter(func(e Entry) bool { return e.C.MinTS+w > now }, gone)
}

// PurgeFloor is Purge with a floor of each entry's own, which a graveyard's
// sweep takes (DESIGN.md §4): it removes the entries with MinTS + w <=
// floor(e) and returns how many.
func (s *State) PurgeFloor(w stream.Time, floor func(Entry) stream.Time) int {
	if s.Empty() {
		return 0
	}
	return s.filter(func(e Entry) bool { return e.C.MinTS+w > floor(e) }, nil)
}

// filter keeps the entries keep selects and hands every other one to gone
// unless gone is nil. keep is asked once per run, so it must be a function
// of the entry alone. MinTS is not monotone in Seq (a composite's MinTS can
// predate its arrival), so expiry filters each run rather than truncating
// it, preserving the order of what it keeps.
func (s *State) filter(keep func(Entry) bool, gone func(Entry)) int {
	n := 0
	s.version++
	s.min = MinCache{}
	for i, r := range s.runs {
		kept := r.ents[:0]
		for _, e := range r.ents {
			if keep(e.Entry) {
				kept = append(kept, e)
				if i == 0 {
					s.min.Add(e.C.MinTS)
				}
				continue
			}
			if i == 0 {
				n++
				s.acct.Free(s.mem, e.C.DeepSizeBytes())
				if gone != nil {
					gone(e.Entry)
				}
			}
		}
		// Zero the tail so removed composites are collectable.
		clear(r.ents[len(kept):])
		r.ents = kept
	}
	return n
}

// lookup returns the run keyed on exactly sig's attributes, in sig's order,
// and the key hash of sig's values. The first lookup by an attribute set
// files a new run from the entries; the state's own key on the same columns
// serves as it is.
func (s *State) lookup(sig []Bound) (*run, uint64) {
	h := uint64(FNVOffset)
	for _, b := range sig {
		h = FoldValue(h, b.Val)
	}
	for _, r := range s.runs {
		if slices.EqualFunc(r.key, sig, func(a predicate.Attr, b Bound) bool { return a == b.Attr }) {
			return r, h
		}
	}
	r := &run{key: make(Key, len(sig)), ents: make([]hashed, 0, s.Len())}
	for i, b := range sig {
		r.key[i] = b.Attr
	}
	for _, e := range s.runs[0].ents {
		r.ents = append(r.ents, hashed{h: r.key.Hash(e.C), Entry: e.Entry})
	}
	slices.SortFunc(r.ents, cmpHashed)
	s.runs = append(s.runs, r)
	return r, h
}

// WalkCarrying visits, in ascending sequence order and until visit returns
// false, the candidates for carrying sig's values: the entries whose values
// at sig's attributes hash as sig's do. The caller verifies each by its own
// matching rule, since a candidate may be a hash collision. Like Walk it
// finds its place again after a mutation, so visit may mutate the state.
func (s *State) WalkCarrying(sig []Bound, visit func(Entry) bool) {
	r, h := s.lookup(sig)
	s.walk(r, h, 0, visit)
}

// RemoveIf removes and returns, in ascending sequence order, the candidates
// for carrying sig's values (WalkCarrying) that pred selects: core moves a
// suspended signature's matches into a blacklist.
func (s *State) RemoveIf(sig []Bound, pred func(*stream.Composite) bool) []Entry {
	var removed []Entry
	s.WalkCarrying(sig, func(e Entry) bool {
		if pred(e.C) {
			removed = append(removed, e)
		}
		return true
	})
	for _, e := range removed {
		s.version++
		s.min.Remove(1, e.C.MinTS)
		s.acct.Free(s.mem, e.C.DeepSizeBytes())
		for _, r := range s.runs {
			r.remove(e)
		}
	}
	return removed
}

// Scan visits every entry, in (key hash, Seq) order, until visit returns
// false. visit must not mutate the state; a probe that can re-enter walks.
func (s *State) Scan(visit func(Entry) bool) {
	for _, e := range s.runs[0].ents {
		if !visit(e.Entry) {
			return
		}
	}
}
