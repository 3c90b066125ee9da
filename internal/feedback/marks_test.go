package feedback

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// FuzzSuppressionByValue holds MarkTable.Suppressing, two side-index lookups,
// to a scan of the active origins in creation order: the first whose left
// side signature the left input carries and whose right side signature the
// right input carries, an origin with an empty side covering nothing. It
// also holds the charge to its rule — one comparison per attribute list the
// left index has filed, and as many for the right index when the left found
// an origin — and the table's holdings to the model after every step.
//
// The operator's left input holds sources 0 and 1, its right 2 and 3, and
// every signature constrains column 0 of some of them. Each operation reads
// two bytes: the high two bits of the first pick it and its low six are a
// parameter p; the second, b, is a signature (low nibble the sources it
// constrains, high nibble their values, bit i for source i) or a pair.
//
//   - 0: an origin under signature b becomes active, its anchor p+1 after
//     the clock. The descriptor is the one made before under b — a consumer
//     hands on the one its buffer keeps, so a dissolved origin is made again
//     under it — or, when p has bit 5 set, a fresh one with the same
//     signature. Either way an active origin of that signature only has its
//     anchor extended.
//   - 1: the origin of signature b dissolves (resumption).
//   - 2: the clock moves p on and the origins whose anchor it reached expire.
//   - 3: a pair is asked: the left input carries sources 0 and 1, the right
//     2 and 3, each with value bit i of b, except the sources p's low nibble
//     leaves out (an input keeps at least one).
func FuzzSuppressionByValue(f *testing.F) {
	// One origin over sources 0 and 2 at values 1 and 1: it covers the pair
	// carrying them, stops when it dissolves and covers it again, made anew.
	f.Add([]byte{0x08, 0x55, 0xc0, 0x05, 0x40, 0x55, 0xc0, 0x05, 0x08, 0x55, 0xc0, 0x05, 0xc0, 0x04})
	// Origins constraining one side only (sources 0 and 1; source 2) cover
	// nothing, beside one that covers both.
	f.Add([]byte{0x08, 0x33, 0x08, 0x44, 0xc0, 0x07, 0x08, 0x35, 0xc0, 0x07, 0xc0, 0x03})
	// Two origins cover one pair and the earlier wins, though both lookups
	// meet the later first (a third origin filed its groups first);
	// dissolving it hands the pair to the later, and re-making it, under a
	// fresh descriptor, does not take the pair back.
	f.Add([]byte{0x08, 0x09, 0x08, 0x66, 0x08, 0x99, 0xc0, 0x0f, 0x40, 0x66, 0xc0, 0x0f, 0x28, 0x66, 0xc0, 0x0f})
	// A duplicate extends an anchor, origins expire as the clock reaches
	// theirs, and a pair missing a source matches nothing constrained there.
	f.Add([]byte{0x02, 0x55, 0x10, 0xa5, 0x05, 0x55, 0xc0, 0x05, 0x84, 0x00, 0xc0, 0x05, 0x82, 0x00,
		0xc0, 0x05, 0xc0, 0x00, 0xc1, 0x00, 0x8b, 0x00, 0xc0, 0x00})
	left := stream.SourceSet(0).Add(0).Add(1)
	f.Fuzz(func(t *testing.T, ops []byte) {
		mt := NewMarkTable(&metrics.Account{})
		descs := map[byte]*MNS{}
		var model []*OriginEntry // the active origins, in creation order
		filed := [2]map[stream.SourceSet]bool{{}, {}}
		now := stream.Time(0)
		sigOf := func(b byte) Signature {
			var sig Signature
			for src := stream.SourceID(0); src < 4; src++ {
				if b&(1<<src) != 0 {
					sig = append(sig, SigEntry{Attr: predicate.Attr{Source: src}, Val: stream.Value(b >> (4 + src) & 1)})
				}
			}
			return sig
		}
		indexOf := func(sig Signature) int {
			for i, e := range model {
				if slices.Equal(e.MNS.Sig, sig) {
					return i
				}
			}
			return -1
		}
		for step := 0; step+1 < len(ops); step += 2 {
			p, b := ops[step]&0x3f, ops[step+1]
			switch ops[step] >> 6 {
			case 0:
				sig := sigOf(b)
				if len(sig) == 0 {
					continue // the Ø MNS is never a Type II origin
				}
				mask := b & 0x0f
				key := mask | b&(mask<<4) // the values of unconstrained sources do not count
				m := descs[key]
				if m == nil || p&0x20 != 0 {
					m = &MNS{ID: uint64(step + 1), Sources: sig.Sources(), Sig: sig}
					descs[key] = m
				}
				m.Expiry = now + stream.Time(p&0x1f) + 1
				i := indexOf(sig)
				var held stream.Time
				if i >= 0 {
					held = model[i].Expiry
				}
				e := mt.ActivateOrigin(m, left)
				if i >= 0 {
					if e != nil || model[i].Expiry != max(held, m.Expiry) {
						t.Fatalf("step %d: duplicate of %v made %v, anchor %v from %v and %v", step, sig, e, model[i].Expiry, held, m.Expiry)
					}
					continue
				}
				if e == nil || e.MNS != m {
					t.Fatalf("step %d: origin of %v not made", step, sig)
				}
				model = append(model, e)
				for side, srcs := range [2]stream.SourceSet{left, ^left} {
					if s := sig.Sources() & srcs; s != 0 {
						filed[side][s] = true
					}
				}
			case 1:
				sig := sigOf(b)
				if len(sig) == 0 {
					continue
				}
				i := indexOf(sig)
				e, ok := mt.TakeOrigin(&MNS{Sources: sig.Sources(), Sig: sig})
				if ok != (i >= 0) || ok && e != model[i] {
					t.Fatalf("step %d: TakeOrigin(%v) = %v, %t; model index %d", step, sig, e, ok, i)
				}
				if ok {
					model = append(model[:i], model[i+1:]...)
				}
			case 2:
				now += stream.Time(p)
				taken := mt.TakeExpiredOrigins(now)
				var kept, want []*OriginEntry
				for _, e := range model {
					if e.Expiry <= now {
						want = append(want, e)
					} else {
						kept = append(kept, e)
					}
				}
				if !slices.Equal(taken, want) {
					t.Fatalf("step %d: expired %d origins, model %d", step, len(taken), len(want))
				}
				model = kept
			case 3:
				l, r := pairOf(b, p)
				var want *OriginEntry
				leftHit := false
				for _, e := range model {
					ls, rs := sideSig(e, true), sideSig(e, false)
					lm := len(ls) > 0 && ls.MatchedBy(l)
					leftHit = leftHit || lm
					if want == nil && lm && len(rs) > 0 && rs.MatchedBy(r) {
						want = e
					}
				}
				wantN := 0
				if len(model) > 0 {
					wantN = charge(filed[0])
					if leftHit {
						wantN += charge(filed[1])
					}
				}
				got, n := mt.Suppressing(l, r)
				if got != want || n != wantN {
					t.Fatalf("step %d: Suppressing(%v, %v) = %v, %d comparisons; the scan finds %v, %d", step, l, r, got, n, want, wantN)
				}
			}
			if mt.NumOrigins() != len(model) || mt.Buckets() > 2*len(model) {
				t.Fatalf("step %d: table holds %d origins in %d buckets, model %d", step, mt.NumOrigins(), mt.Buckets(), len(model))
			}
		}
	})
}

// sideSig is e's side signature, left or right, as a copy.
func sideSig(e *OriginEntry, left bool) Signature { return e.appendSide(left, nil) }

// charge is what a lookup in a side index costs: one comparison per
// attribute of every attribute list filed there.
func charge(filed map[stream.SourceSet]bool) (n int) {
	for s := range filed {
		n += s.Count()
	}
	return n
}

// pairOf builds FuzzSuppressionByValue's pair: value bit i of b for source
// i, leaving out the sources in p's low nibble but one per input.
func pairOf(b, p byte) (l, r *stream.Composite) {
	build := func(srcs ...stream.SourceID) *stream.Composite {
		var c *stream.Composite
		for k, src := range srcs {
			if p&(1<<src) != 0 && (k < len(srcs)-1 || c != nil) {
				continue
			}
			x := comp(4, tpl(src, 1, stream.Value(b>>src&1)))
			if c == nil {
				c = x
			} else {
				c = stream.Join(c, x)
			}
		}
		return c
	}
	return build(0, 1), build(2, 3)
}

// TestOriginEntrySize pins an origin entry to the 64 B size class: it keeps
// its left input's sources, not copies of its side signatures' headers.
func TestOriginEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(OriginEntry{}); n > 64 {
		t.Fatalf("OriginEntry takes %d B, want at most 64", n)
	}
}
