package feedback

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// FuzzMarkIDs drives two composites' mark lists and a mark table's active
// origins with random operations and holds them to a map model: after every
// step each list is the model's ids in ascending order, HasMark agrees with
// the model, and SuppressedBy returns what the rule it replaced returned —
// the smallest id both composites carry whose origin is active, or 0. Marks
// are never cleared: a dissolved origin's id stays on the composites and
// suppresses nothing, also once an origin is made again under the same
// descriptor, which takes one past the last id the table used. Each input
// byte is one operation: the high three bits pick it, the low four the
// descriptor's id (1 to 16).
func FuzzMarkIDs(f *testing.F) {
	// Id 3 suppresses while active and stays on both composites when
	// dissolved, where the origin made again under the same descriptor does
	// not find it; of 4 and 5, the smaller active one wins.
	f.Add([]byte{0x02, 0x22, 0x42, 0x80, 0x62, 0x80, 0x42, 0x80, 0x04, 0x03, 0x23, 0x24, 0x44, 0x80, 0x43, 0x80, 0x63, 0x80})
	f.Add([]byte{0x01, 0x21, 0x61, 0x80, 0x85, 0x81, 0x81})
	f.Add([]byte{0x03, 0x02, 0x01, 0x23, 0x21, 0x62, 0x63, 0x80, 0x80, 0x42})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := [2]*stream.Composite{comp(2, tpl(0, 1, 0)), comp(2, tpl(1, 2, 0))}
		model := [2]map[uint64]bool{{}, {}}
		mt := NewMarkTable(&metrics.Account{})
		origins := map[uint64]*MNS{}  // active origins, by descriptor id
		markOf := map[uint64]uint64{} // the mark id each one took
		descs := map[uint64]*MNS{}    // every descriptor made, by id
		active := map[uint64]bool{}   // the active origins' mark ids
		last := uint64(0)
		for step, op := range ops {
			id := uint64(op&0x0f) + 1
			switch k := op >> 5; k {
			case 0, 1: // add to composite k
				c[k].AddMark(id)
				model[k][id] = true
			case 2: // an origin under id becomes active
				if origins[id] == nil {
					m := descs[id]
					if m == nil {
						m = &MNS{ID: id, Expiry: NoExpiry, Sig: Signature{{Attr: predicate.Attr{}, Val: stream.Value(id)}}}
						descs[id] = m
					}
					e := mt.ActivateOrigin(m, m.Sig, nil)
					if e == nil {
						t.Fatalf("step %d: origin %d not activated", step, id)
					}
					if last = max(id, last+1); e.ID != last {
						t.Fatalf("step %d: origin %d took mark id %d, want %d", step, id, e.ID, last)
					}
					origins[id], markOf[id], active[last] = m, last, true
				}
			case 3: // and is dissolved
				if m := origins[id]; m != nil {
					if _, ok := mt.TakeOrigin(m); !ok {
						t.Fatalf("step %d: origin %d not taken", step, id)
					}
					delete(origins, id)
					delete(active, markOf[id])
				}
			default: // SuppressedBy
				want := uint64(0)
				for _, x := range slices.Sorted(maps.Keys(model[0])) {
					if model[1][x] && active[x] {
						want = x
						break
					}
				}
				for _, pair := range [][2]*stream.Composite{{c[0], c[1]}, {c[1], c[0]}} {
					if got := mt.SuppressedBy(pair[0], pair[1]); got != want {
						t.Fatalf("step %d: SuppressedBy = %d, want %d (marks %v and %v)",
							step, got, want, c[0].Marks(), c[1].Marks())
					}
				}
			}
			for i := range c {
				want := slices.Sorted(maps.Keys(model[i]))
				if got := c[i].Marks(); !slices.Equal(got, want) || (len(want) == 0) != (got == nil) {
					t.Fatalf("step %d: composite %d carries %v, want %v", step, i, got, want)
				}
				for x := uint64(1); x <= 16; x++ {
					if c[i].HasMark(x) != model[i][x] {
						t.Fatalf("step %d: composite %d HasMark(%d) = %t", step, i, x, !model[i][x])
					}
				}
			}
		}
	})
}

// TestRestrictSharesARun: a side signature whose attributes form one run of
// the sorted signature shares its storage, capped so an append cannot reach
// the entries after it; an interleaved one is a copy. Both hold the same
// entries the filter would.
func TestRestrictSharesARun(t *testing.T) {
	at := func(src stream.SourceID, col int, v stream.Value) SigEntry {
		return SigEntry{Attr: predicate.Attr{Source: src, Col: col}, Val: v}
	}
	sig := Signature{at(0, 0, 1), at(0, 1, 2), at(1, 0, 3), at(2, 0, 4), at(3, 1, 5)}
	set := func(ids ...stream.SourceID) (s stream.SourceSet) {
		for _, id := range ids {
			s = s.Add(id)
		}
		return s
	}
	for _, tc := range []struct {
		set    stream.SourceSet
		want   Signature
		shares bool
	}{
		{set(0), sig[0:2], true},
		{set(1, 2), sig[2:4], true},
		{set(3), sig[4:], true},
		{set(0, 2), Signature{sig[0], sig[1], sig[3]}, false},
		{set(5), nil, true},
	} {
		got := tc.set.String()
		r := sig.Restrict(tc.set)
		if !slices.Equal(r, tc.want) {
			t.Fatalf("%s: %v, want %v", got, r, tc.want)
		}
		if len(r) == 0 {
			continue
		}
		if shares := &r[0] == &sig[slices.Index(sig, r[0])]; shares != tc.shares {
			t.Fatalf("%s: shares storage %t, want %t", got, shares, tc.shares)
		}
		before := slices.Clone(sig)
		_ = append(r, at(7, 7, 7))
		if !slices.Equal(sig, before) {
			t.Fatalf("%s: appending to the restriction changed the signature to %v", got, sig)
		}
	}
}
