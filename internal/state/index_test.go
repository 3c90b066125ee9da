package state

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stream"
)

// kcomp builds a single-source composite over a 2-source catalog with the
// given key value in column 0.
func kcomp(id uint64, ts stream.Time, val stream.Value) *stream.Composite {
	return stream.NewComposite(2, &stream.Tuple{ID: id, Source: 0, TS: ts, Vals: []stream.Value{val}})
}

func key0() Key { return Key{{Source: 0, Col: 0}} }

// probeAll walks the run for key hash h from cursor 0 and returns the
// visited seqs.
func probeAll(st *State, h uint64) []uint64 { return probeFrom(st, h, 0) }

// probeFrom walks the run for key hash h from the given cursor.
func probeFrom(st *State, h uint64, after uint64) []uint64 {
	var seqs []uint64
	st.Walk(h, after, func(e Entry) bool { seqs = append(seqs, e.Seq); return true })
	return seqs
}

func TestKeyHash(t *testing.T) {
	k := key0()
	ha, hb, hc := k.Hash(kcomp(1, 0, 7)), k.Hash(kcomp(2, 0, 7)), k.Hash(kcomp(3, 0, 8))
	if ha != hb {
		t.Fatal("equal key values must hash equal")
	}
	if ha == hc {
		t.Fatal("distinct key values should hash apart (FNV over distinct int64s)")
	}
	if h := Key(nil).Hash(kcomp(4, 0, 7)); h != FNVOffset {
		t.Fatalf("the empty key hashed a composite to %d, not FNVOffset", h)
	}
}

// TestKeyHashRefusesPartialComposite pins the refusal: no composite lacking
// a key source reaches a State, and one that did would have no run to be
// filed in or probe.
func TestKeyHashRefusesPartialComposite(t *testing.T) {
	partial := stream.NewComposite(2, &stream.Tuple{ID: 1, Source: 1, Vals: []stream.Value{0}})
	defer func() {
		if got, want := recover(), "state: composite {1} lacks a key source"; got != want {
			t.Fatalf("Hash of a composite lacking the key source panicked with %v, want %q", got, want)
		}
	}()
	key0().Hash(partial)
}

func TestIndexedProbeVisitsBucketInSeqOrder(t *testing.T) {
	st, side := New("S", metrics.MemState, &metrics.Account{}), &Side{}
	st.SetKey(key0())
	if !st.Indexed() {
		t.Fatal("SetKey did not enable the index")
	}
	// Interleave two key values.
	e1 := put(st, side, kcomp(1, 1, 7))
	put(st, side, kcomp(2, 2, 9))
	e3 := put(st, side, kcomp(3, 3, 7))
	e4 := put(st, side, kcomp(4, 4, 7))
	h := key0().Hash(kcomp(99, 0, 7))
	if got, want := probeAll(st, h), []uint64{e1.Seq, e3.Seq, e4.Seq}; !slices.Equal(got, want) {
		t.Fatalf("probe visited %v, want %v", got, want)
	}
	// Cursor filtering: start after e1.
	if got, want := probeFrom(st, h, e1.Seq), []uint64{e3.Seq, e4.Seq}; !slices.Equal(got, want) {
		t.Fatalf("probe after cursor visited %v, want %v", got, want)
	}
}

func TestIndexMaintenanceOnRemovePurgeReinsert(t *testing.T) {
	st, side := New("S", metrics.MemState, &metrics.Account{}), &Side{}
	st.SetKey(key0())
	a := put(st, side, kcomp(1, 10, 7))
	b := put(st, side, kcomp(2, 20, 7))
	h := key0().Hash(a.C)

	// Remove a, probe must only see b.
	if _, ok := take(st, a.C); !ok {
		t.Fatal("remove failed")
	}
	if got := probeAll(st, h); len(got) != 1 || got[0] != b.Seq {
		t.Fatalf("after remove: %v", got)
	}
	// Reinsert a with its original seq: probe sees both, in seq order.
	st.Reinsert(a)
	if got := probeAll(st, h); len(got) != 2 || got[0] != a.Seq || got[1] != b.Seq {
		t.Fatalf("after reinsert: %v", got)
	}
	// Purge everything: the run must drain with the state.
	st.Purge(10000, 1, nil)
	if got := probeAll(st, h); len(got) != 0 {
		t.Fatalf("ghost entries after purge: %v", got)
	}
}

// TestIndexMatchesScan cross-checks the keyed Walk against a filtered scan
// under randomized insert / remove / purge / reinsert traffic: for every
// key value, the walk must visit exactly the entries a scan would match, in
// ascending sequence — from cursor 0 (the live probe) and from a mid-store
// cursor after out-of-sequence reinsertion (the access pattern of a
// resumption, which reinserts tuples in the order their blacklist entries
// release them and probes from a park-time cursor).
func TestIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st, side := New("S", metrics.MemState, &metrics.Account{}), &Side{}
	st.SetKey(key0())
	now := stream.Time(0)
	var parked []Entry
	for i := 0; i < 3000; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			now += stream.Time(rng.Intn(3))
			put(st, side, kcomp(uint64(i), now, stream.Value(rng.Intn(5)+1)))
		case 2:
			st.Purge(now, 40, nil)
		case 3:
			removed := st.RemoveIf(nil, func(c *stream.Composite) bool {
				return c.Comp(0).Vals[0] == stream.Value(rng.Intn(5)+1) && rng.Intn(3) == 0
			})
			parked = append(parked, removed...)
		case 4:
			// Reinsert from a random position: sequence order must be
			// restored whatever order entries come back in.
			for len(parked) > 0 {
				k := rng.Intn(len(parked))
				e := parked[k]
				parked = append(parked[:k], parked[k+1:]...)
				if e.C.MinTS+40 > now {
					st.Reinsert(e)
					break
				}
			}
		}
		if i%100 != 0 {
			continue
		}
		for v := stream.Value(1); v <= 5; v++ {
			h := key0().Hash(kcomp(0, 0, v))
			var want []uint64
			st.Scan(func(e Entry) bool {
				if e.C.Comp(0).Vals[0] == v {
					want = append(want, e.Seq)
				}
				return true
			})
			slices.Sort(want)
			// With 5 values collisions are effectively impossible, so the
			// walk must equal the scan's selection.
			if got := probeAll(st, h); !slices.Equal(got, want) {
				t.Fatalf("step %d v=%d: keyed walk visited %v, a scan selects %v", i, v, got, want)
			}
			if len(want) == 0 {
				continue
			}
			k := rng.Intn(len(want))
			if got := probeFrom(st, h, want[k]); !slices.Equal(got, want[k+1:]) {
				t.Fatalf("step %d v=%d cursor %d: keyed walk visited %v, want %v", i, v, want[k], got, want[k+1:])
			}
		}
		if ts, ok := st.MinTS(); ok {
			min, first := stream.Time(0), true
			st.Scan(func(e Entry) bool {
				if first || e.C.MinTS < min {
					min, first = e.C.MinTS, false
				}
				return true
			})
			if ts != min {
				t.Fatalf("step %d: cached MinTS %d, exact %d", i, ts, min)
			}
		}
	}
}

func TestSetKeyGuards(t *testing.T) {
	st := New("S", metrics.MemState, &metrics.Account{})
	put(st, &Side{}, kcomp(1, 1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("SetKey on non-empty state must panic")
		}
	}()
	st.SetKey(key0())
}

func TestSetKeyEmptyLeavesScanOnly(t *testing.T) {
	st, side := New("S", metrics.MemState, &metrics.Account{}), &Side{}
	st.SetKey(nil)
	if st.Indexed() {
		t.Fatal("nil key must leave the state scan-only")
	}
	// Scan-only means one run under the empty key's hash: a walk by a value
	// hash finds nothing where the walk of the run finds every entry.
	e := put(st, side, kcomp(1, 1, 7))
	f := put(st, side, kcomp(2, 2, 8))
	if got := probeAll(st, key0().Hash(e.C)); len(got) != 0 {
		t.Fatalf("scan-only state answered a keyed probe: %v", got)
	}
	if got := seqsAfter(st, 0); !slices.Equal(got, []uint64{e.Seq, f.Seq}) {
		t.Fatalf("linear walk visited %v", got)
	}
}
