package state

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stream"
)

const (
	graveWindow = 40
	graveDomain = 4 // key values are 0..graveDomain-1
)

// graveHarness drives one Grave and a slice model of it through the same
// operations. Stored entries join a keyed tuple of source 0 with an unkeyed
// one of source 2, so their MinTS can predate their TS; probes are tuples of
// source 1. Keyed harnesses join the two sides on column 0; unkeyed ones
// have no crossing equi predicate, so every entry shares one run.
type graveHarness struct {
	t          *testing.T
	g          *Grave
	acct       *metrics.Account
	key, probe Key
	side       Side
	model      []Entry // what the graveyard must retain, in retirement order
	held       []Entry // sequence numbers drawn but not yet retired
	gone       []Entry // dropped by Expire
	now        stream.Time
	nextID     uint64
}

func newGraveHarness(t *testing.T, keyed bool) *graveHarness {
	h := &graveHarness{t: t, acct: &metrics.Account{}}
	if keyed {
		h.key, h.probe = Key{{Source: 0, Col: 0}}, Key{{Source: 1, Col: 0}}
	}
	h.g = NewGrave(h.key, h.probe, h.acct)
	return h
}

func (h *graveHarness) tuple(src stream.SourceID, ts stream.Time, v stream.Value) *stream.Composite {
	h.nextID++
	return stream.NewComposite(3, &stream.Tuple{ID: h.nextID, Source: src, TS: ts, Vals: []stream.Value{v}})
}

// fresh draws a sequence number for a new stored entry whose key value and
// age bits choose.
func (h *graveHarness) fresh(bits byte) Entry {
	age := min(stream.Time(bits/graveDomain%16), h.now)
	c := stream.Join(h.tuple(0, h.now, stream.Value(bits%graveDomain)), h.tuple(2, h.now-age, 0))
	return Entry{C: c, Seq: h.side.Next()}
}

func (h *graveHarness) retire(es ...Entry) {
	h.g.Retire(es...)
	h.model = append(h.model, es...)
}

// next is what a walk for probe p must visit after seq last: the retained
// entry filed under p's key hash with the lowest sequence above last.
func (h *graveHarness) next(p *stream.Composite, last uint64) (Entry, bool) {
	ph, _ := h.probe.Hash(p)
	var best Entry
	found := false
	for _, e := range h.model {
		if eh, _ := h.key.Hash(e.C); eh == ph && e.Seq > last && (!found || e.Seq < best.Seq) {
			best, found = e, true
		}
	}
	return best, found
}

// step applies one operation chosen by three bytes.
func (h *graveHarness) step(op, a, b byte) {
	switch op % 6 {
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
		h.retire(batch...)
	case 2: // a sequence number drawn now and retired later, out of order
		h.now += stream.Time(a % 4)
		h.held = append(h.held, h.fresh(b))
	case 3: // the clock moves and everything expired by a floor goes
		h.now += stream.Time(a % 16)
		floor := h.now - min(h.now, stream.Time(b%graveWindow))
		h.g.Expire(floor, graveWindow)
		h.model = slices.DeleteFunc(h.model, func(e Entry) bool {
			if e.C.MinTS+graveWindow <= floor {
				h.gone = append(h.gone, e)
				return true
			}
			return false
		})
	case 4: // lookups by sequence: retained, dropped, never retired
		if len(h.model) > 0 {
			if e := h.model[int(a)%len(h.model)]; !h.g.Retains(e) {
				h.t.Fatalf("seq %d is retained but not found", e.Seq)
			}
		}
		for _, l := range [][]Entry{h.gone, h.held} {
			if len(l) > 0 {
				if e := l[int(b)%len(l)]; h.g.Retains(e) {
					h.t.Fatalf("seq %d is not retained but found", e.Seq)
				}
			}
		}
	default: // a walk from a cursor whose visitor retires entries under it
		p := h.tuple(1, h.now, stream.Value(a%graveDomain))
		after := uint64(b) % (h.side.Watermark() + 1)
		last, visits := after, 0
		h.g.Walk(p, after, func(e Entry) bool {
			want, ok := h.next(p, last)
			if !ok || want != e {
				h.t.Fatalf("walk for %d after seq %d visited seq %d, the model has %d (%v) next", a%graveDomain, last, e.Seq, want.Seq, ok)
			}
			last = e.Seq
			if visits++; visits > 3 {
				return true // a few retirements per walk keep the graveyard small
			}
			switch (int(a/8) + visits) % 3 {
			case 0: // a held one retires, behind the walk or ahead of it
				if len(h.held) > 0 {
					h.retire(h.held[0])
					h.held = h.held[1:]
				}
			case 1: // a new one retires ahead of the walk
				h.retire(h.fresh(b + byte(visits)))
			}
			return true
		})
		if missed, ok := h.next(p, last); ok {
			h.t.Fatalf("walk for %d stopped at seq %d with seq %d still to come", a%graveDomain, last, missed.Seq)
		}
	}
}

// check compares the graveyard with the model: the same entries, walked in
// ascending Seq for every probe value, and the same account bytes.
func (h *graveHarness) check() {
	if h.g.Len() != len(h.model) {
		h.t.Fatalf("graveyard retains %d entries, model %d", h.g.Len(), len(h.model))
	}
	var bytes int64
	for _, e := range h.model {
		bytes += e.C.DeepSizeBytes()
	}
	if got := h.acct.LiveBy()[metrics.MemGraveyard]; got != bytes || h.acct.Live() != bytes {
		h.t.Fatalf("account holds %d graveyard bytes (%d overall), the model's entries %d", got, h.acct.Live(), bytes)
	}
	for v := stream.Value(0); v < graveDomain; v++ {
		p := h.tuple(1, h.now, v)
		ph, _ := h.probe.Hash(p)
		var want, got []Entry
		for _, e := range h.model {
			if eh, _ := h.key.Hash(e.C); eh == ph {
				want = append(want, e)
			}
		}
		slices.SortFunc(want, func(x, y Entry) int { return cmp.Compare(x.Seq, y.Seq) })
		h.g.Walk(p, 0, func(e Entry) bool { got = append(got, e); return true })
		if !slices.Equal(got, want) {
			h.t.Fatalf("walk for %d found %v, the model %v", v, got, want)
		}
	}
}

// runGrave interprets data three bytes per operation, checking after each,
// then expires everything.
func runGrave(t *testing.T, keyed bool, data []byte) {
	h := newGraveHarness(t, keyed)
	for ; len(data) >= 3; data = data[3:] {
		h.step(data[0], data[1], data[2])
		h.check()
	}
	h.g.Expire(h.now+graveWindow, graveWindow)
	h.model = nil
	h.check()
}

// TestGraveMatchesModel is the graveyard's property test: under batches
// retired in any Seq order, expiry by a floor, lookups by sequence and walks
// whose visitor retires entries, the graveyard holds exactly the model's
// entries, walks a probe's key run in ascending Seq, and charges exactly
// their bytes.
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
// (graveHarness.step).
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
