package feedback

import (
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/state"
	"repro/internal/stream"
)

// fnvTwins are two values state.FoldValue hashes alike from the FNV offset:
// filed under one attribute, they share a bucket of every value index, and
// only the key comparison that ends each lookup keeps them apart.
var fnvTwins = [2]stream.Value{-3903196117755569215, 7514802344287042344}

func checkTwinsCollide(t testing.TB) {
	if a, b := state.FoldValue(state.FNVOffset, fnvTwins[0]), state.FoldValue(state.FNVOffset, fnvTwins[1]); a != b {
		t.Fatalf("fnvTwins hash to %d and %d: no collision is being tested", a, b)
	}
}

// TestTablesKeepHashTwinsApart files two MNSs whose signatures hash alike in
// every table: each must be held, found, matched and taken as itself.
func TestTablesKeepHashTwinsApart(t *testing.T) {
	checkTwinsCollide(t)
	twins := func() [2]*MNS {
		var ms [2]*MNS
		for i, v := range fnvTwins {
			ms[i] = mnsA(v, 1000)
			ms[i].ID = uint64(i + 1)
		}
		return ms
	}
	// An input of source 0 carrying twin i at the signature's column, and an
	// opposite arrival carrying it at the column the predicate tests.
	input := func(i int) *stream.Composite { return comp(3, tpl(0, 10, 0, fnvTwins[i])) }
	opposite := func(i int) *stream.Composite { return comp(3, tpl(2, 10, fnvTwins[i])) }

	t.Run("blacklist", func(t *testing.T) {
		bl := NewBlacklist(&metrics.Account{})
		ms := twins()
		var es [2]*Entry
		for i, m := range ms {
			e, created := bl.Ensure(m)
			if !created {
				t.Fatalf("twin %d folded into the other's entry", i)
			}
			es[i] = e
		}
		if bl.Len() != 2 {
			t.Fatalf("%d entries for two signatures", bl.Len())
		}
		for i := range ms {
			if hit, _ := bl.MatchArrival(input(i), 0); hit != es[i] {
				t.Fatalf("twin %d's arrival diverted to %v", i, hit)
			}
			if e, ok := bl.Entry(ms[i]); !ok || e != es[i] {
				t.Fatalf("Entry(twin %d) = %v", i, e)
			}
		}
		if e, ok := bl.Take(ms[0]); !ok || e != es[0] {
			t.Fatalf("Take(twin 0) = %v", e)
		}
		if _, ok := bl.Entry(ms[0]); ok {
			t.Fatal("twin 0 still held after its take")
		}
		if e, ok := bl.Entry(ms[1]); !ok || e != es[1] {
			t.Fatal("taking twin 0 took twin 1 with it")
		}
		if hit, _ := bl.MatchArrival(input(0), 0); hit != nil {
			t.Fatalf("twin 0's arrival diverted to %v after its take", hit)
		}
	})

	t.Run("buffer", func(t *testing.T) {
		b := NewBuffer(&metrics.Account{})
		ms := twins()
		for i, m := range ms {
			if kept, added := b.Add(m, false); !added || kept != m {
				t.Fatalf("twin %d not added", i)
			}
		}
		if matched, _ := b.Probe(opposite(1), 1); len(matched) != 1 || matched[0] != ms[1] || b.Len() != 1 {
			t.Fatalf("probe for twin 1 matched %v, %d left", matched, b.Len())
		}
		if matched, _ := b.Probe(opposite(0), 1); len(matched) != 1 || matched[0] != ms[0] || b.Len() != 0 {
			t.Fatalf("probe for twin 0 matched %v, %d left", matched, b.Len())
		}
	})

	t.Run("origins", func(t *testing.T) {
		mt := NewMarkTable(&metrics.Account{})
		// Each twin's origin spans both inputs: the twin at the signature's
		// column on the left, at the predicate's on the right.
		var es [2]*OriginEntry
		for i, m := range twins() {
			m.Sources = m.Sources.Add(2)
			m.Sig = append(m.Sig, SigEntry{Attr: predicate.Attr{Source: 2}, Val: fnvTwins[i]})
			if es[i] = mt.ActivateOrigin(m, stream.SourceSet(0).Add(0)); es[i] == nil {
				t.Fatalf("twin %d folded into the other's origin", i)
			}
		}
		for i := range es {
			if got, _ := mt.Suppressing(input(i), opposite(i)); got != es[i] {
				t.Fatalf("twin %d's pair suppressed by %v", i, got)
			}
			if got, _ := mt.Suppressing(input(i), opposite(1-i)); got != nil {
				t.Fatalf("a pair of twins %d and %d suppressed by %v", i, 1-i, got)
			}
		}
		if e, ok := mt.TakeOrigin(es[0].MNS); !ok || e != es[0] || mt.NumOrigins() != 1 {
			t.Fatal("taking twin 0's origin did not leave twin 1's alone")
		}
		if got, _ := mt.Suppressing(input(1), opposite(1)); got != es[1] {
			t.Fatalf("twin 1's pair suppressed by %v after twin 0's take", got)
		}
	})
}

// FuzzValueIndex drives one value index with random add, remove, find and
// match calls and holds it to a brute-force model: the elements filed, in
// filing order, and the attribute lists in the order they were first filed.
// find and within must return the first filed element with an equal signature; match
// must visit exactly the elements MatchedBy accepts, Ø first and then group
// by group in creation order, stop when visit says so, and charge one
// comparison per attribute of every group it reached; and nothing but add
// may create a group.
//
// Every operation reads two bytes. Signatures constrain column 0 of a subset
// of sources 0, 1 and 2 (bit i of the second byte) to values drawn from
// {0, 1, fnvTwins[0], fnvTwins[1]}: bits 3-4 and 5-6 of the second byte pick
// sources 0's and 1's, the first byte's low two bits source 2's. The first
// byte's top two bits pick the operation; its bit 2 makes a matched
// composite lack the sources the signature omits (a removal, take an
// element that was never filed), and bits 3-5 stop the visit after that
// many elements (0: never).
func FuzzValueIndex(f *testing.F) {
	// Twin 0 on source 0, looked up as twin 1, then filed beside it.
	f.Add([]byte{0x00, 0x11, 0xc0, 0x19, 0x80, 0x19, 0x00, 0x19, 0xc0, 0x11, 0x40, 0x00, 0xc0, 0x19, 0x80, 0x11})
	f.Add([]byte{0x00, 0x07, 0x00, 0x0f, 0x00, 0x4b, 0x80, 0x07, 0xc0, 0x07, 0xc0, 0x00, 0x40, 0x07, 0xc0, 0x07})
	f.Add([]byte{0x00, 0x31, 0x00, 0x11, 0x00, 0x21, 0x00, 0x00, 0xc0, 0x31, 0xc8, 0x31, 0x80, 0x21, 0x80, 0x11, 0x44, 0x01})
	f.Add([]byte{0x00, 0xfe, 0x00, 0xbe, 0x00, 0x02, 0xc4, 0xfe, 0xc4, 0xbe, 0x80, 0x06, 0x40, 0x02, 0x80, 0x04, 0xd0, 0xbe})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkTwinsCollide(t)
		vals := [4]stream.Value{0, 1, fnvTwins[0], fnvTwins[1]}
		x := fpIndex[*MNS]{key: func(m *MNS, buf []SigEntry) []SigEntry { return append(buf, m.Sig...) }}
		var filed []*MNS
		var groups []stream.SourceSet // attribute lists, by the sources they constrain
		id := uint64(0)
		for step := 0; step+1 < len(ops); step += 2 {
			op, bits := ops[step], ops[step+1]
			var set stream.SourceSet
			var sig Signature
			var value [3]stream.Value
			for src := stream.SourceID(0); src < 3; src++ {
				value[src] = vals[bits>>(3+2*src)&3]
				if src == 2 {
					value[src] = vals[op&3]
				}
				if bits>>src&1 == 1 {
					set = set.Add(src)
					sig = append(sig, SigEntry{Attr: predicate.Attr{Source: src}, Val: value[src]})
				}
			}
			switch op >> 6 {
			case 0: // add
				id++
				m := &MNS{ID: id, Sources: set, Sig: sig}
				x.add(m)
				filed = append(filed, m)
				if !set.Empty() && !slices.Contains(groups, set) {
					groups = append(groups, set)
				}
			case 1: // remove a filed element, or one that never was
				m := &MNS{Sig: sig}
				if len(filed) > 0 && op&4 == 0 {
					k := int(bits) % len(filed)
					m = filed[k]
					filed = slices.Delete(filed, k, k+1)
				}
				x.remove(m)
			case 2: // find, under the signature's own place and by restriction
				got, ok := x.find(sig, sig)
				var want *MNS
				for _, m := range filed {
					if slices.Equal(m.Sig, sig) {
						want = m
						break
					}
				}
				if ok != (want != nil) || got != want {
					t.Fatalf("step %d: find(%v) = %v %t, want %v", step, sig, got, ok, want)
				}
				if got, ok := x.within(sig); ok != (want != nil) || got != want {
					t.Fatalf("step %d: within(%v) = %v %t, want %v", step, sig, got, ok, want)
				}
			case 3: // match
				var c *stream.Composite
				for src := stream.SourceID(0); src < 3; src++ {
					if op&4 != 0 && !set.Has(src) && (c != nil || src < 2) {
						continue
					}
					tp := &stream.Tuple{ID: uint64(src) + 1, Source: src, TS: 1, Vals: []stream.Value{value[src]}}
					if c == nil {
						c = stream.NewComposite(3, tp)
					} else {
						c = stream.Join(c, stream.NewComposite(3, tp))
					}
				}
				stop := int(op >> 3 & 7)
				var got []*MNS
				n := x.match(c, func(m *MNS) bool {
					got = append(got, m)
					return len(got) != stop
				})
				var want []*MNS
				wantN := 0
				visit := func(of stream.SourceSet) bool {
					for _, m := range filed {
						if m.Sources == of && m.Sig.MatchedBy(c) {
							want = append(want, m)
							if len(want) == stop {
								return false
							}
						}
					}
					return true
				}
				if visit(0) {
					for _, g := range groups {
						wantN += g.Count()
						if !visit(g) {
							break
						}
					}
				}
				if !slices.Equal(got, want) || n != wantN {
					t.Fatalf("step %d: match(%v) visited %v charging %d, want %v charging %d", step, c, got, n, want, wantN)
				}
			}
			if len(x.groups) != len(groups) {
				t.Fatalf("step %d: %d groups, %d attribute lists filed", step, len(x.groups), len(groups))
			}
		}
	})
}
