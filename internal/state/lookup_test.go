package state

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// carries is the linear rule a lookup replaces (feedback.Signature.MatchedBy):
// c agrees on every constrained value.
func carries(c *stream.Composite, sig []Bound) bool {
	for _, b := range sig {
		if c.Comp(b.Attr.Source).Vals[b.Attr.Col] != b.Val {
			return false
		}
	}
	return true
}

// lookupShapes are the attribute sets the harness looks up by: one column,
// another, both, one column of each source and none (every entry carries
// it).
var lookupShapes = [][]predicate.Attr{
	{{Source: 0, Col: 0}},
	{{Source: 0, Col: 1}},
	{{Source: 0, Col: 0}, {Source: 0, Col: 1}},
	{{Source: 0, Col: 0}, {Source: 1, Col: 0}},
	{},
}

const lookupDomain = 3 // values are 0..lookupDomain-1

// lookupHarness drives one State and a sorted-slice model of it through the
// same operations.
type lookupHarness struct {
	t      *testing.T
	st     *State
	side   Side
	live   []Entry // the model: what the state must hold, ascending Seq
	held   []Entry // sequence numbers drawn but not yet stored, or taken back out
	now    stream.Time
	nextID uint64
	// looked marks the shapes some operation has looked up by: only those
	// have a run, so the rest are first verified against entries that
	// were stored before their run existed.
	looked [5]bool
}

const lookupWindow = 40

// sigOf builds the lookup for a shape with values chosen by bits.
func sigOf(shape int, bits byte) []Bound {
	sig := make([]Bound, len(lookupShapes[shape]))
	for i, a := range lookupShapes[shape] {
		sig[i] = Bound{Attr: a, Val: stream.Value(bits % lookupDomain)}
		bits /= lookupDomain
	}
	return sig
}

// fresh builds a composite of both sources, the whole composite every entry
// of a wired operator's state is, with values chosen by kind and bits, and
// draws its sequence number.
func (h *lookupHarness) fresh(kind, bits byte) Entry {
	h.nextID++
	tup := func(src stream.SourceID, bits byte) *stream.Composite {
		v0, v1 := stream.Value(bits%lookupDomain), stream.Value(bits/lookupDomain%lookupDomain)
		return stream.NewComposite(2, &stream.Tuple{ID: h.nextID, Source: src, TS: h.now, Vals: []stream.Value{v0, v1}})
	}
	return Entry{C: stream.Join(tup(0, bits), tup(1, kind)), Seq: h.side.Next()}
}

func (h *lookupHarness) store(e Entry) {
	h.st.Reinsert(e)
	i, _ := slices.BinarySearchFunc(h.live, e.Seq, func(x Entry, seq uint64) int { return cmp.Compare(x.Seq, seq) })
	h.live = slices.Insert(h.live, i, e)
}

// unstore takes the entry with the given sequence out of the model.
func (h *lookupHarness) unstore(seq uint64) {
	h.live = slices.DeleteFunc(h.live, func(x Entry) bool { return x.Seq == seq })
}

func (h *lookupHarness) expire() {
	h.live = slices.DeleteFunc(h.live, func(x Entry) bool { return x.C.MinTS+lookupWindow <= h.now })
}

// step applies one operation chosen by three bytes.
func (h *lookupHarness) step(op, a, b byte) {
	switch op % 8 {
	case 0, 1: // a new entry, in sequence order
		h.now += stream.Time(a % 4)
		h.store(h.fresh(a, b))
	case 2: // a sequence number drawn now and stored later, out of order
		h.held = append(h.held, h.fresh(a, b))
	case 3: // one of the held entries comes (back) in
		if len(h.held) > 0 {
			k := int(a) % len(h.held)
			h.store(h.held[k])
			h.held = slices.Delete(h.held, k, k+1)
		}
	case 4:
		h.now += stream.Time(a % 16)
		purged := h.st.Purge(h.now, lookupWindow, nil)
		before := len(h.live)
		h.expire()
		if purged != before-len(h.live) {
			h.t.Fatalf("Purge removed %d entries, the model expired %d", purged, before-len(h.live))
		}
	case 5: // RemoveIf by value, of the matches with the chosen id parity
		shape := int(a) % len(lookupShapes)
		sig, parity := sigOf(shape, b), uint64(a/8%2)
		h.looked[shape] = true
		pick := func(c *stream.Composite) bool { return carries(c, sig) && idOf(c)%2 == parity }
		var want []uint64
		for _, e := range h.live {
			if pick(e.C) {
				want = append(want, e.Seq)
			}
		}
		var got []uint64
		for _, e := range h.st.RemoveIf(sig, pick) {
			got = append(got, e.Seq)
			h.unstore(e.Seq)
			h.held = append(h.held, e)
		}
		if !slices.Equal(got, want) {
			h.t.Fatalf("RemoveIf %v removed %v, a linear scan selects %v", sig, got, want)
		}
	default: // a walk whose visitor mutates the state under it
		shape := int(a) % len(lookupShapes)
		sig := sigOf(shape, b)
		h.looked[shape] = true
		// Each step of the walk re-reads the store, so what must come next is
		// the lowest matching sequence past the last visit over whatever the
		// model holds at that moment.
		next := func(after uint64) (uint64, bool) {
			for _, e := range h.live {
				if e.Seq > after && carries(e.C, sig) {
					return e.Seq, true
				}
			}
			return 0, false
		}
		last, lastMatch, matches := uint64(0), uint64(0), 0
		h.st.WalkCarrying(sig, func(e Entry) bool {
			if e.Seq <= last {
				h.t.Fatalf("walk by %v went from seq %d to %d", sig, last, e.Seq)
			}
			last = e.Seq
			if !carries(e.C, sig) {
				return true // a candidate only: a hash collision
			}
			if want, ok := next(lastMatch); !ok || want != e.Seq {
				h.t.Fatalf("walk by %v visited seq %d after %d, the model has %d (%v) next", sig, e.Seq, lastMatch, want, ok)
			}
			lastMatch = e.Seq
			matches++
			switch (int(a/8) + matches) % 4 {
			case 0: // the visited entry leaves
				if n := len(h.st.RemoveIf(nil, func(c *stream.Composite) bool { return c == e.C })); n != 1 {
					h.t.Fatalf("removing the visited entry removed %d", n)
				}
				h.unstore(e.Seq)
				h.held = append(h.held, e)
			case 1: // a held one arrives, behind the walk or ahead of it
				if len(h.held) > 0 {
					h.store(h.held[0])
					h.held = h.held[1:]
				}
			case 2: // a new one arrives at the end
				h.store(h.fresh(b, a))
			}
			return true
		})
		if missed, ok := next(lastMatch); ok {
			h.t.Fatalf("walk by %v stopped at seq %d with %d still to come", sig, lastMatch, missed)
		}
	}
}

// idOf is the tuple id every component of a harness composite shares.
func idOf(c *stream.Composite) uint64 {
	for _, t := range c.Comps {
		if t != nil {
			return t.ID
		}
	}
	return 0
}

// check compares, for every shape some operation has looked up by (and, at
// the end, every shape), each possible lookup with the linear scan.
func (h *lookupHarness) check(all bool) {
	if h.st.Len() != len(h.live) {
		h.t.Fatalf("state holds %d entries, model %d", h.st.Len(), len(h.live))
	}
	for shape := range lookupShapes {
		if !all && !h.looked[shape] {
			continue
		}
		combos := 1
		for range lookupShapes[shape] {
			combos *= lookupDomain
		}
		for bits := 0; bits < combos; bits++ {
			sig := sigOf(shape, byte(bits))
			var want, got []uint64
			for _, e := range h.live {
				if carries(e.C, sig) {
					want = append(want, e.Seq)
				}
			}
			last := uint64(0)
			h.st.WalkCarrying(sig, func(e Entry) bool {
				if e.Seq <= last {
					h.t.Fatalf("walk by %v went from seq %d to %d", sig, last, e.Seq)
				}
				last = e.Seq
				if carries(e.C, sig) {
					got = append(got, e.Seq)
				}
				return true
			})
			if !slices.Equal(got, want) {
				h.t.Fatalf("walk by %v found %v, a linear scan of the model selects %v", sig, got, want)
			}
		}
	}
}

// run interprets data three bytes per operation, checking every looked-up
// shape after each and every shape at the end. keyed states carry an
// equi-join key on the first shape's column, which then serves that shape's
// lookups as it is.
func runLookup(t *testing.T, keyed bool, data []byte) {
	h := &lookupHarness{t: t, st: New("S", metrics.MemState, &metrics.Account{})}
	if keyed {
		h.st.SetKey(Key(lookupShapes[0]))
	}
	for ; len(data) >= 3; data = data[3:] {
		h.step(data[0], data[1], data[2])
		h.check(false)
	}
	h.check(true)
	if keyed && len(h.st.runs) > len(lookupShapes) {
		t.Fatalf("%d runs for %d shapes: the equi-join key must serve its own columns", len(h.st.runs), len(lookupShapes))
	}
	// Everything leaves: the lookup runs drain with the state.
	h.st.Purge(h.now+lookupWindow, lookupWindow, nil)
	for _, r := range h.st.runs {
		if len(r.ents) != 0 {
			t.Fatalf("run on %v holds %d entries of an empty state", r.key, len(r.ents))
		}
	}
}

// TestLookupMatchesScan is the by-value index's property test: under random
// in-order and out-of-order Reinsert, Purge, RemoveIf and walks whose
// visitor mutates the state, WalkCarrying yields — once the caller has
// verified its candidates — exactly the entries a linear scan selects, in
// ascending sequence order, for runs filed before and after the entries
// they cover.
func TestLookupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rounds, steps := 40, 400
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		data := make([]byte, 3*steps)
		rng.Read(data)
		runLookup(t, round%2 == 1, data)
	}
}

// FuzzStateLookup lets the fuzzer choose the operations: three bytes each
// (lookupHarness.step).
func FuzzStateLookup(f *testing.F) {
	f.Add(false, []byte{0, 9, 4, 0, 2, 4, 6, 0, 4, 5, 0, 4})
	f.Add(true, []byte{2, 1, 1, 0, 0, 1, 3, 0, 0, 7, 3, 1, 4, 30, 0, 6, 4, 0})
	f.Add(false, []byte{0, 0, 0, 0, 1, 0, 7, 3, 0, 5, 3, 0, 4, 31, 0})
	f.Fuzz(func(t *testing.T, keyed bool, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		runLookup(t, keyed, data)
	})
}
