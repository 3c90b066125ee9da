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

const (
	modelWindow = 40
	modelDomain = 4 // key values are 0..modelDomain-1
)

// modelShapes are the attribute sets the model harness looks stored tuples
// up by: the key column, the other column of source 0, a column of each
// stored source, and none.
var modelShapes = [][]predicate.Attr{
	{{Source: 0, Col: 0}},
	{{Source: 0, Col: 1}},
	{{Source: 0, Col: 1}, {Source: 2, Col: 0}},
	{},
}

// modelHarness drives one State and a slice model of it through the same
// operations: the live store's (Reinsert in any order, RemoveIf by value,
// Purge handing what expires on, walks that mutate the state under them)
// and the graveyard's (retirement in any order, expiry by a floor, lookups
// by sequence) are one store's. Stored entries join a keyed tuple of source
// 0 with a tuple of source 2, so their MinTS can predate their TS; probes
// are tuples of source 1. A keyed harness files under column 0 of source 0
// and charges the graveyard row, as a join side's graveyard does; an
// unkeyed one has no key, so every entry shares one run, and charges the
// state row.
type modelHarness struct {
	t          *testing.T
	st         *State
	acct       *metrics.Account
	mem        metrics.Mem
	key, probe Key
	side       Side
	model      []Entry // what the state must hold, in no particular order
	held       []Entry // sequence numbers drawn but not yet stored, or taken back out
	gone       []Entry // expired by Purge
	now        stream.Time
	nextID     uint64
}

func newModelHarness(t *testing.T, keyed bool) *modelHarness {
	h := &modelHarness{t: t, acct: &metrics.Account{}, mem: metrics.MemState}
	if keyed {
		h.key, h.probe, h.mem = Key{{Source: 0, Col: 0}}, Key{{Source: 1, Col: 0}}, metrics.MemGraveyard
	}
	h.st = New("S", h.mem, h.acct)
	h.st.SetKey(h.key)
	return h
}

func (h *modelHarness) tuple(src stream.SourceID, ts stream.Time, vals ...stream.Value) *stream.Composite {
	h.nextID++
	return stream.NewComposite(3, &stream.Tuple{ID: h.nextID, Source: src, TS: ts, Vals: vals})
}

// fresh draws a sequence number for a new stored entry whose values and age
// bits choose.
func (h *modelHarness) fresh(bits byte) Entry {
	age := min(stream.Time(bits/modelDomain%16), h.now)
	c := stream.Join(
		h.tuple(0, h.now, stream.Value(bits%modelDomain), stream.Value(bits/64%2)),
		h.tuple(2, h.now-age, stream.Value(bits/128)))
	return Entry{C: c, Seq: h.side.Next()}
}

func (h *modelHarness) store(es ...Entry) {
	for _, e := range es {
		h.st.Reinsert(e)
	}
	h.model = append(h.model, es...)
}

// unstore moves the entry with the given sequence from the model to held.
func (h *modelHarness) unstore(e Entry) {
	h.model = slices.DeleteFunc(h.model, func(x Entry) bool { return x.Seq == e.Seq })
	h.held = append(h.held, e)
}

func bySeq(x, y Entry) int { return cmp.Compare(x.Seq, y.Seq) }

// modelSig builds the lookup for a shape with values chosen by bits: the
// key column ranges over the key domain, the others over two values.
func modelSig(shape int, bits byte) []Bound {
	sig := make([]Bound, len(modelShapes[shape]))
	for i, a := range modelShapes[shape] {
		n := byte(2)
		if a == (predicate.Attr{Source: 0, Col: 0}) {
			n = modelDomain
		}
		sig[i] = Bound{Attr: a, Val: stream.Value(bits % n)}
		bits /= n
	}
	return sig
}

// filed lists, in ascending Seq, the model's entries filed under probe p's
// key hash.
func (h *modelHarness) filed(p *stream.Composite) []Entry {
	ph := h.probe.Hash(p)
	var out []Entry
	for _, e := range h.model {
		if h.key.Hash(e.C) == ph {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, bySeq)
	return out
}

// carriers lists, in ascending Seq, the model's entries carrying sig's values.
func (h *modelHarness) carriers(sig []Bound) []Entry {
	var out []Entry
	for _, e := range h.model {
		if carries(e.C, sig) {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, bySeq)
	return out
}

// firstAfter returns the first entry of list with a sequence above last.
func firstAfter(list []Entry, last uint64) (Entry, bool) {
	for _, e := range list {
		if e.Seq > last {
			return e, true
		}
	}
	return Entry{}, false
}

// step applies one operation chosen by three bytes.
func (h *modelHarness) step(op, a, b byte) {
	switch op % 8 {
	case 0, 1: // a batch of new entries, plus a held one, in any order
		batch := []Entry{h.fresh(a)}
		if b%2 == 0 {
			batch = append(batch, h.fresh(b))
		}
		if len(h.held) > 0 && a%2 == 0 {
			batch = append(batch, h.held[0])
			h.held = h.held[1:]
		}
		rand.New(rand.NewSource(int64(b))).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		h.store(batch...)
	case 2: // a sequence number drawn now and stored later, out of order
		h.now += stream.Time(a % 4)
		h.held = append(h.held, h.fresh(b))
	case 3: // the clock moves and everything expired by a floor goes
		h.now += stream.Time(a % 16)
		floor := h.now - min(h.now, stream.Time(b%modelWindow))
		var handed []Entry
		var gone func(Entry)
		if a/16%2 == 0 {
			gone = func(e Entry) { handed = append(handed, e) }
		}
		n := h.st.Purge(floor, modelWindow, gone)
		var expired []Entry
		h.model = slices.DeleteFunc(h.model, func(e Entry) bool {
			if e.C.MinTS+modelWindow <= floor {
				expired = append(expired, e)
				return true
			}
			return false
		})
		h.gone = append(h.gone, expired...)
		slices.SortFunc(expired, bySeq)
		slices.SortFunc(handed, bySeq)
		if n != len(expired) || (gone != nil && !slices.Equal(handed, expired)) {
			h.t.Fatalf("Purge removed %d and handed on %v, the model expired %v", n, handed, expired)
		}
	case 4: // lookups by sequence: held, expired, never stored or taken out
		if len(h.model) > 0 {
			if e := h.model[int(a)%len(h.model)]; !h.st.Holds(e) {
				h.t.Fatalf("seq %d is held but not found", e.Seq)
			}
		}
		for _, l := range [][]Entry{h.gone, h.held} {
			if len(l) > 0 {
				if e := l[int(b)%len(l)]; h.st.Holds(e) {
					h.t.Fatalf("seq %d is not held but found", e.Seq)
				}
			}
		}
	case 5: // RemoveIf by value, of the carriers with the chosen id parity
		sig, parity := modelSig(int(a)%len(modelShapes), b), uint64(a/8%2)
		pick := func(c *stream.Composite) bool { return carries(c, sig) && c.Comp(0).ID%2 == parity }
		var want, got []uint64
		for _, e := range h.carriers(sig) {
			if pick(e.C) {
				want = append(want, e.Seq)
			}
		}
		for _, e := range h.st.RemoveIf(sig, pick) {
			got = append(got, e.Seq)
			h.unstore(e)
		}
		if !slices.Equal(got, want) {
			h.t.Fatalf("RemoveIf %v removed %v, the model selects %v", sig, got, want)
		}
	case 6: // a walk from a cursor whose visitor mutates the state under it
		p := h.tuple(1, h.now, stream.Value(a%modelDomain))
		cursor := uint64(b) % (h.side.Watermark() + 1)
		last, visits := cursor, 0
		h.st.Walk(h.probe.Hash(p), cursor, func(e Entry) bool {
			if want, ok := firstAfter(h.filed(p), last); !ok || want != e {
				h.t.Fatalf("walk for %d after seq %d visited seq %d, the model has %d (%v) next", a%modelDomain, last, e.Seq, want.Seq, ok)
			}
			last = e.Seq
			if visits++; visits > 3 {
				return true // a few mutations per walk keep the state small
			}
			switch (int(a/8) + visits) % 4 {
			case 0: // a held one comes (back) in, behind the walk or ahead of it
				if len(h.held) > 0 {
					h.store(h.held[0])
					h.held = h.held[1:]
				}
			case 1: // a new one comes in ahead of the walk
				h.store(h.fresh(b + byte(visits)))
			case 2: // the visited entry leaves
				if n := len(h.st.RemoveIf(nil, func(c *stream.Composite) bool { return c == e.C })); n != 1 {
					h.t.Fatalf("removing the visited entry removed %d", n)
				}
				h.unstore(e)
			default: // an entry ahead of the walk leaves
				if next, ok := firstAfter(h.filed(p), e.Seq); ok {
					h.st.RemoveIf(nil, func(c *stream.Composite) bool { return c == next.C })
					h.unstore(next)
				}
			}
			return true
		})
		if missed, ok := firstAfter(h.filed(p), last); ok {
			h.t.Fatalf("walk for %d stopped at seq %d with seq %d still to come", a%modelDomain, last, missed.Seq)
		}
	default: // a lookup by value
		sig := modelSig(int(a)%len(modelShapes), b)
		var got []Entry
		last := uint64(0)
		h.st.WalkCarrying(sig, func(e Entry) bool {
			if e.Seq <= last {
				h.t.Fatalf("walk by %v went from seq %d to %d", sig, last, e.Seq)
			}
			last = e.Seq
			if carries(e.C, sig) {
				got = append(got, e)
			}
			return true
		})
		if want := h.carriers(sig); !slices.Equal(got, want) {
			h.t.Fatalf("walk by %v found %v, the model %v", sig, got, want)
		}
	}
}

// check compares the state with the model: the same entries, walked in
// ascending Seq for every probe value, the same minimum MinTS, and the same
// account bytes on the harness's row.
func (h *modelHarness) check() {
	if h.st.Len() != len(h.model) {
		h.t.Fatalf("state holds %d entries, model %d", h.st.Len(), len(h.model))
	}
	var bytes int64
	for _, e := range h.model {
		bytes += e.C.DeepSizeBytes()
	}
	if got := h.acct.LiveBy()[h.mem]; got != bytes || h.acct.Live() != bytes {
		h.t.Fatalf("account holds %d bytes on row %v (%d overall), the model's entries %d", got, h.mem, h.acct.Live(), bytes)
	}
	if ts, ok := h.st.MinTS(); ok != (len(h.model) > 0) || ok && ts != slices.MinFunc(h.model, func(x, y Entry) int { return cmp.Compare(x.C.MinTS, y.C.MinTS) }).C.MinTS {
		h.t.Fatalf("cached MinTS %d (%v) disagrees with the model", ts, ok)
	}
	for v := stream.Value(0); v < modelDomain; v++ {
		p := h.tuple(1, h.now, v)
		var got []Entry
		h.st.Walk(h.probe.Hash(p), 0, func(e Entry) bool { got = append(got, e); return true })
		if want := h.filed(p); !slices.Equal(got, want) {
			h.t.Fatalf("walk for %d found %v, the model %v", v, got, want)
		}
	}
}

// runGrave interprets data three bytes per operation, checking after each,
// then expires everything.
func runGrave(t *testing.T, keyed bool, data []byte) {
	h := newModelHarness(t, keyed)
	for ; len(data) >= 3; data = data[3:] {
		h.step(data[0], data[1], data[2])
		h.check()
	}
	h.st.Purge(h.now+modelWindow, modelWindow, nil)
	h.model = nil
	h.check()
}

// TestGraveMatchesModel is the window store's property test, a live state's
// and a graveyard's alike: under entries stored in any Seq order, RemoveIf
// by value, Purge with and without a receiver for what expires, lookups by
// sequence and by value, and walks whose visitor stores and removes
// entries, the state holds exactly the model's entries, walks a probe's key
// run in ascending Seq, and charges exactly their bytes.
func TestGraveMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rounds, steps := 40, 300
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		data := make([]byte, 3*steps)
		rng.Read(data)
		runGrave(t, round%2 == 0, data)
	}
}

// FuzzGraveyard lets the fuzzer choose the operations: three bytes each
// (modelHarness.step).
func FuzzGraveyard(f *testing.F) {
	f.Add(true, []byte{0, 1, 2, 2, 0, 5, 0, 6, 1, 5, 3, 0, 4, 0, 0, 3, 20, 0})
	f.Add(false, []byte{0, 0, 0, 2, 1, 3, 1, 2, 2, 5, 8, 0, 4, 1, 1})
	f.Fuzz(func(t *testing.T, keyed bool, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		runGrave(t, keyed, data)
	})
}
