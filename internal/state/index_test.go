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

// otherComp builds a composite from source 1 — it lacks the key source and
// must land in the loose overflow.
func otherComp(id uint64, ts stream.Time) *stream.Composite {
	return stream.NewComposite(2, &stream.Tuple{ID: id, Source: 1, TS: ts, Vals: []stream.Value{0}})
}

func key0() Key { return Key{{Source: 0, Col: 0}} }

// probeAll drains probeNext from cursor 0 and returns the visited seqs.
func probeAll(st *State, h uint64) []uint64 { return probeFrom(st, h, 0) }

// probeFrom drains probeNext from the given cursor.
func probeFrom(st *State, h uint64, after uint64) []uint64 {
	var seqs []uint64
	for {
		e, ok := st.probeNext(h, after)
		if !ok {
			return seqs
		}
		seqs = append(seqs, e.Seq)
		after = e.Seq
	}
}

func TestKeyHash(t *testing.T) {
	k := key0()
	a := kcomp(1, 0, 7)
	b := kcomp(2, 0, 7)
	c := kcomp(3, 0, 8)
	ha, ok := k.Hash(a)
	if !ok {
		t.Fatal("hash of keyed composite failed")
	}
	hb, _ := k.Hash(b)
	hc, _ := k.Hash(c)
	if ha != hb {
		t.Fatal("equal key values must hash equal")
	}
	if ha == hc {
		t.Fatal("distinct key values should hash apart (FNV over distinct int64s)")
	}
	if _, ok := k.Hash(otherComp(4, 0)); ok {
		t.Fatal("hash must fail when the key source is absent")
	}
}

func TestIndexedProbeVisitsBucketInSeqOrder(t *testing.T) {
	st, side := New("S", &metrics.Account{}), &Side{}
	st.SetKey(key0())
	if !st.Indexed() {
		t.Fatal("SetKey did not enable the index")
	}
	// Interleave two key values plus a loose entry.
	e1 := put(st, side, kcomp(1, 1, 7))
	put(st, side, kcomp(2, 2, 9))
	loose := put(st, side, otherComp(3, 3))
	e4 := put(st, side, kcomp(4, 4, 7))
	h, _ := key0().Hash(kcomp(99, 0, 7))
	got := probeAll(st, h)
	// Bucket for 7 plus the loose entry, ascending seq.
	want := []uint64{e1.Seq, loose.Seq, e4.Seq}
	if len(got) != len(want) {
		t.Fatalf("probe visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probe visited %v, want %v", got, want)
		}
	}
	// Cursor filtering: start after e1.
	if e, ok := st.probeNext(h, e1.Seq); !ok || e.Seq != loose.Seq {
		t.Fatalf("probeNext after cursor wrong: %v %v", e, ok)
	}
}

func TestIndexMaintenanceOnRemovePurgeReinsert(t *testing.T) {
	st, side := New("S", &metrics.Account{}), &Side{}
	st.SetKey(key0())
	a := put(st, side, kcomp(1, 10, 7))
	b := put(st, side, kcomp(2, 20, 7))
	h, _ := key0().Hash(a.C)

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
	// Purge everything: the bucket must drain with the state.
	st.Purge(10000, 1)
	if got := probeAll(st, h); len(got) != 0 {
		t.Fatalf("ghost entries after purge: %v", got)
	}
}

// TestIndexMatchesScan cross-checks probeNext against a filtered linear walk
// under randomized insert / remove / purge / reinsert traffic: for every
// key value, the indexed walk must visit exactly the entries a linear scan
// would match, in the same order — from cursor 0 (the live probe) and from
// a mid-store cursor after out-of-sequence reinsertion (the access pattern
// of a resumption, which reinserts tuples in the order their blacklist
// entries release them and probes from a park-time cursor).
func TestIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st, side := New("S", &metrics.Account{}), &Side{}
	st.SetKey(key0())
	now := stream.Time(0)
	var parked []Entry
	for i := 0; i < 3000; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			now += stream.Time(rng.Intn(3))
			if rng.Intn(10) == 0 {
				put(st, side, otherComp(uint64(i), now))
			} else {
				put(st, side, kcomp(uint64(i), now, stream.Value(rng.Intn(5)+1)))
			}
		case 2:
			st.Purge(now, 40)
		case 3:
			removed := st.RemoveIf(nil, func(c *stream.Composite) bool {
				t := c.Comp(0)
				return t != nil && t.Vals[0] == stream.Value(rng.Intn(5)+1) && rng.Intn(3) == 0
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
			probe := kcomp(0, 0, v)
			h, _ := key0().Hash(probe)
			got := probeAll(st, h)
			var want []uint64
			st.Scan(func(e Entry) bool {
				c := e.C.Comp(0)
				if c == nil || c.Vals[0] == v {
					want = append(want, e.Seq)
				}
				return true
			})
			if len(got) < len(want) {
				t.Fatalf("step %d v=%d: indexed walk missed entries: got %v want %v", i, v, got, want)
			}
			// got may contain hash collisions (superset), but must contain
			// want as a subsequence in order; with 5 values collisions are
			// effectively impossible, so demand equality.
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("step %d v=%d: order diverged: got %v want %v", i, v, got, want)
				}
			}
			if len(want) == 0 {
				continue
			}
			cursor := want[rng.Intn(len(want))]
			var tail, keyed []uint64
			st.Walk(false, 0, cursor, func(e Entry) bool {
				if c := e.C.Comp(0); c == nil || c.Vals[0] == v {
					tail = append(tail, e.Seq)
				}
				return true
			})
			st.Walk(true, h, cursor, func(e Entry) bool { keyed = append(keyed, e.Seq); return true })
			if from := probeFrom(st, h, cursor); !slices.Equal(from, tail) || !slices.Equal(keyed, tail) {
				t.Fatalf("step %d v=%d cursor %d: probeNext %v, keyed Walk %v, want %v", i, v, cursor, from, keyed, tail)
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
	st := New("S", &metrics.Account{})
	put(st, &Side{}, kcomp(1, 1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("SetKey on non-empty state must panic")
		}
	}()
	st.SetKey(key0())
}

func TestSetKeyEmptyLeavesScanOnly(t *testing.T) {
	st, side := New("S", &metrics.Account{}), &Side{}
	st.SetKey(nil)
	if st.Indexed() {
		t.Fatal("nil key must leave the state scan-only")
	}
	// Scan-only means no bucket and no loose list: a keyed walk finds nothing
	// where the linear one finds the entry.
	e := put(st, side, kcomp(1, 1, 7))
	h, _ := key0().Hash(e.C)
	if got := probeAll(st, h); len(got) != 0 {
		t.Fatalf("scan-only state answered a keyed probe: %v", got)
	}
	if got := seqsAfter(st, 0); !slices.Equal(got, []uint64{e.Seq}) {
		t.Fatalf("linear walk visited %v", got)
	}
}
