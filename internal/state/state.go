// Package state implements sliding-window operator states: the S_A, S_B,
// S_AB, ... rectangles of the paper's execution plans. A State stores live
// composites in arrival order, purges them when their oldest component
// leaves the window, and hands out *stable sequence numbers* that the JIT
// resumption protocol uses as exact "already joined up to here" cursors.
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
// Hash index (see DESIGN.md §3): a State may additionally be keyed on the
// exact-equi columns of the crossing predicates (SetKey). Entries then live
// both in the arrival-order slice and in per-key-hash buckets, each kept in
// ascending sequence order, so a probe visits only the entries sharing the
// probing tuple's key values (plus hash collisions, which the caller's
// predicate evaluation rejects) via a keyed Walk instead of scanning the whole
// state. Entries whose composite lacks a key component fall into a loose
// overflow list that every probe also visits, preserving the vacuous-truth
// semantics of predicate.Eq.Holds.
//
// The same index type is held once more per attribute set a feedback
// signature has been looked up by (WalkCarrying, RemoveIf): a suspension
// finds the stored tuples carrying its values there instead of testing the
// signature against every entry.
//
// A Grave is the other window store: exact mode's retired entries, in one
// slice sorted by (key hash, Seq), keyed on the crossing equi-key whether or
// not the live State is (DESIGN.md §4).
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
// hash. ok is false when the composite lacks one of the key sources; such
// composites cannot be keyed and take the linear fallback paths (a stored
// one goes to the loose list, a probing one falls back to a full scan). A
// Grave, which only ever holds and is probed by whole port composites,
// refuses them.
func (k Key) Hash(c *stream.Composite) (h uint64, ok bool) {
	h = FNVOffset
	for _, a := range k {
		t := c.Comp(a.Source)
		if t == nil {
			return 0, false
		}
		h = FoldValue(h, t.Vals[a.Col])
	}
	return h, true
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
// the active State, of the blacklist and of the Grave on that side all carry
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
// added and is recomputed on the next Get after anything that can raise it.
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

// Remove notes that k cached values left the multiset.
func (c *MinCache) Remove(k int) {
	if k > 0 {
		c.n -= k
		c.dirty = true
	}
}

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
	name    string
	acct    *metrics.Account
	entries []Entry // arrival order == ascending Seq
	version uint64  // incremented on every mutation; an unkeyed Walk re-finds its place when it moves
	// indexes are the hash indexes over the entries, every one kept current
	// by indexInsert / indexRemove. With keyed set, indexes[0] is the equi-join
	// key's (SetKey), the one probes walk. The rest were built by lookup, one
	// per attribute set a signature was ever looked up by, and are never
	// dropped: what a lookup costs depends only on the attribute sets seen.
	indexes []*index
	keyed   bool
	// min caches the smallest MinTS among live entries so the engine's
	// deadline scheduler can ask "when does the next tuple expire" in O(1)
	// (DESIGN.md §4).
	min MinCache
}

// New creates a state labelled name (e.g. "S_AB") charging memory to acct,
// which may be shared with the blacklists on the same join side.
func New(name string, acct *metrics.Account) *State {
	return &State{name: name, acct: acct}
}

// SetKey configures the hash index over the given key columns. It must be
// called before any entry is inserted; an empty key leaves the state
// scan-only.
func (s *State) SetKey(k Key) {
	if len(s.entries) > 0 {
		panic(fmt.Sprintf("state: SetKey on non-empty state %s", s.name))
	}
	if len(k) == 0 {
		return
	}
	s.indexes, s.keyed = []*index{newIndex(append(Key(nil), k...))}, true
}

// Indexed reports whether the state maintains a hash index on an equi-join
// key.
func (s *State) Indexed() bool { return s.keyed }

// Len returns the number of live entries.
func (s *State) Len() int { return len(s.entries) }

// Empty reports whether the state holds no live tuples.
func (s *State) Empty() bool { return len(s.entries) == 0 }

// MinTS returns the smallest MinTS among live entries; ok is false when the
// state is empty. The earliest window-expiry deadline of the state is
// MinTS() + window (see JoinOp.NextDeadline, DESIGN.md §4).
func (s *State) MinTS() (stream.Time, bool) {
	return s.min.Get(func(add func(stream.Time)) {
		for _, e := range s.entries {
			add(e.C.MinTS)
		}
	})
}

// Reinsert places an entry with a pre-drawn sequence number into the state,
// preserving ascending-seq order. Used for fresh inputs (whose sequence is
// drawn at probe start, before insertion) and for tuples reactivated out of
// a blacklist (which keep their original sequence for life).
func (s *State) Reinsert(e Entry) {
	s.version++
	s.min.Add(e.C.MinTS)
	s.acct.Alloc(metrics.MemState, e.C.DeepSizeBytes())
	s.entries = insertBySeq(s.entries, e)
	s.indexInsert(e)
}

// insertBySeq places e into the ascending-Seq slice. The common case —
// reactivated tuples are older than the newest live ones — walks back from
// the end to find the insertion point.
func insertBySeq(list []Entry, e Entry) []Entry {
	i := len(list)
	for i > 0 && list[i-1].Seq > e.Seq {
		i--
	}
	list = append(list, Entry{})
	copy(list[i+1:], list[i:])
	list[i] = e
	return list
}

// seqIndexAfter returns the index of the first entry in the ascending-Seq
// list with sequence strictly greater than seq (binary search).
func seqIndexAfter(list []Entry, seq uint64) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid].Seq <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// index is one hash index over a state's entries: per-key-hash buckets plus
// the loose overflow of entries whose composite lacks a key component, each
// kept in ascending Seq order, mirroring the entries slice.
type index struct {
	key     Key
	buckets map[uint64][]Entry
	loose   []Entry
}

func newIndex(key Key) *index {
	return &index{key: key, buckets: make(map[uint64][]Entry)}
}

func (x *index) insert(e Entry) {
	if h, ok := x.key.Hash(e.C); ok {
		x.buckets[h] = insertBySeq(x.buckets[h], e)
	} else {
		x.loose = insertBySeq(x.loose, e)
	}
}

// remove recomputes the entry's bucket from its composite; key values are
// immutable while stored, so the hash is stable.
func (x *index) remove(e Entry) {
	h, ok := x.key.Hash(e.C)
	if !ok {
		x.loose = removeSeq(x.loose, e.Seq)
		return
	}
	b := removeSeq(x.buckets[h], e.Seq)
	if len(b) == 0 {
		delete(x.buckets, h)
	} else {
		x.buckets[h] = b
	}
}

// next returns the entry with the lowest sequence number strictly greater
// than after, among the bucket for key hash h and the loose overflow.
func (x *index) next(h, after uint64) (Entry, bool) {
	var best Entry
	found := false
	if b := x.buckets[h]; len(b) > 0 {
		if i := seqIndexAfter(b, after); i < len(b) {
			best, found = b[i], true
		}
	}
	if len(x.loose) > 0 {
		if i := seqIndexAfter(x.loose, after); i < len(x.loose) && (!found || x.loose[i].Seq < best.Seq) {
			best, found = x.loose[i], true
		}
	}
	return best, found
}

// indexInsert mirrors an insertion into every index.
func (s *State) indexInsert(e Entry) {
	for _, x := range s.indexes {
		x.insert(e)
	}
}

// indexRemove mirrors a removal.
func (s *State) indexRemove(e Entry) {
	for _, x := range s.indexes {
		x.remove(e)
	}
}

// removeSeq deletes the entry with the given sequence from an ascending-Seq
// list, if present.
func removeSeq(list []Entry, seq uint64) []Entry {
	i := seqIndexAfter(list, seq-1) // first index with Seq >= seq
	if i < len(list) && list[i].Seq == seq {
		copy(list[i:], list[i+1:])
		list[len(list)-1] = Entry{}
		list = list[:len(list)-1]
	}
	return list
}

// probeNext returns the live entry with the lowest sequence number strictly
// greater than after, among the equi-key bucket for key hash h and the loose
// (unkeyable) overflow; nothing when the state is not Indexed. It re-reads
// the index on every call, so probe loops built on it are resilient to
// re-entrant insertions and removals without version bookkeeping: the next
// call simply resumes after the last sequence processed. Bucket entries may
// be hash collisions; callers re-evaluate the join predicates on every
// returned entry (DESIGN.md §3).
func (s *State) probeNext(h uint64, after uint64) (Entry, bool) {
	if !s.keyed {
		return Entry{}, false
	}
	return s.indexes[0].next(h, after)
}

// Walk visits, in ascending sequence order, the entries with sequence
// strictly greater than after, until visit returns false: every entry, or —
// keyed — only the equi-key bucket for key hash h and the loose overflow. It
// is the probe loop of core's live probes, and tolerates visit mutating the
// state re-entrantly (suspension feedback triggered by an emitted result):
// the walk then resumes after the last sequence visited.
func (s *State) Walk(keyed bool, h, after uint64, visit func(Entry) bool) {
	if keyed {
		for e, ok := s.probeNext(h, after); ok && visit(e); e, ok = s.probeNext(h, e.Seq) {
		}
		return
	}
	ver, i := s.version, seqIndexAfter(s.entries, after)
	for i < len(s.entries) {
		e := s.entries[i]
		if !visit(e) {
			return
		}
		if i++; ver != s.version {
			ver, i = s.version, seqIndexAfter(s.entries, e.Seq)
		}
	}
}

// BySeq returns the entry holding the given sequence number, if present.
func (s *State) BySeq(seq uint64) (Entry, bool) {
	if i := seqIndexAfter(s.entries, seq-1); i < len(s.entries) && s.entries[i].Seq == seq {
		return s.entries[i], true
	}
	return Entry{}, false
}

// Purge removes and returns the entries whose oldest component has expired:
// MinTS + w <= now. It runs on every arrival, so the cached minimum spares
// the scan when nothing is due.
//
// Entries are in arrival order but MinTS is not monotone in general (a
// composite's MinTS can predate its arrival), so expiry filters rather than
// truncates a prefix, preserving order among both kept and removed entries.
func (s *State) Purge(now, window stream.Time) []Entry {
	if ts, ok := s.MinTS(); !ok || ts+window > now {
		return nil
	}
	expired := now - window
	var removed []Entry
	kept := s.entries[:0]
	var min stream.Time
	for _, e := range s.entries {
		if e.C.MinTS <= expired {
			removed = append(removed, e)
			s.acct.Free(metrics.MemState, e.C.DeepSizeBytes())
			s.indexRemove(e)
			continue
		}
		if len(kept) == 0 || e.C.MinTS < min {
			min = e.C.MinTS
		}
		kept = append(kept, e)
	}
	if len(kept) < len(s.entries) {
		s.version++
	}
	// Zero the tail so removed composites are collectable.
	clear(s.entries[len(kept):])
	s.entries = kept
	s.min = MinCache{min: min, n: len(kept)}
	return removed
}

// lookup returns the index keyed on exactly sig's attributes, in sig's order,
// and the key hash of sig's values. The first lookup by an attribute set
// builds its index in one pass over the entries; an equi-join key on the
// same columns serves as it is.
func (s *State) lookup(sig []Bound) (*index, uint64) {
	h := uint64(FNVOffset)
	for _, b := range sig {
		h = FoldValue(h, b.Val)
	}
	for _, x := range s.indexes {
		if slices.EqualFunc(x.key, sig, func(a predicate.Attr, b Bound) bool { return a == b.Attr }) {
			return x, h
		}
	}
	x := newIndex(make(Key, len(sig)))
	for i, b := range sig {
		x.key[i] = b.Attr
	}
	for _, e := range s.entries {
		x.insert(e)
	}
	s.indexes = append(s.indexes, x)
	return x, h
}

// WalkCarrying visits, in ascending sequence order and until visit returns
// false, the candidates for carrying sig's values: the entries whose values
// at sig's attributes hash as sig's do, and those lacking one of its sources.
// The caller verifies each by its own matching rule — a candidate may be a
// hash collision, and a composite lacking a source carries nothing there.
// Like a keyed Walk it re-reads the index at every step, so visit may mutate
// the state.
func (s *State) WalkCarrying(sig []Bound, visit func(Entry) bool) {
	x, h := s.lookup(sig)
	for e, ok := x.next(h, 0); ok && visit(e); e, ok = x.next(h, e.Seq) {
	}
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
		s.min.Remove(1)
		s.acct.Free(metrics.MemState, e.C.DeepSizeBytes())
		s.entries = removeSeq(s.entries, e.Seq)
		s.indexRemove(e)
	}
	return removed
}

// Scan visits every live entry in arrival order. The visitor returns false
// to stop early (used when a suspension feedback aborts an in-progress
// probe, Sec. III-B).
func (s *State) Scan(visit func(Entry) bool) {
	for _, e := range s.entries {
		if !visit(e) {
			return
		}
	}
}

// SnapshotLive exports the entries still inside the window at the given cut
// time, in arrival order — the state half of the §2 snapshot cut (DESIGN.md
// §7): a checkpoint or plan migration taken between arrivals needs exactly
// the composites a purge at the cut would keep, and nothing a purge would
// drop. The returned slice is a copy; the composites are shared.
func (s *State) SnapshotLive(cut, window stream.Time) []Entry {
	var out []Entry
	for _, e := range s.entries {
		if e.C.MinTS+window > cut {
			out = append(out, e)
		}
	}
	return out
}
