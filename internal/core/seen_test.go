package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// The tests in this file pin what an MNS rules out (DESIGN.md §2): a result
// deferred under an MNS that its consumer detected joins, at that consumer,
// only the opposite tuples stored after the MNS's Seen claim.

// seenPlan is the hand-built plan of these tests: P joins sources 0 and 1 on
// column 0 and feeds the left input of X, a linear-scan root joining it with
// source 2 on 1.c1 = 2.c0, over a window of 100.
func seenPlan(mode core.Mode, exact bool) (p, x *core.JoinOp, out *collector) {
	const w = 100
	ids := uint64(100)
	next := func() uint64 { ids++; return ids }
	acct := &metrics.Account{}
	src := func(s stream.SourceID) stream.SourceSet { return stream.SourceSet(0).Add(s) }
	conj := predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}, {Left: 1, LCol: 1, Right: 2, RCol: 0}}
	p = core.NewJoin(core.Config{
		Name: "P", NumSources: 3, Window: w, Mode: mode, Account: acct, NextMNS: next, Preds: conj,
		LeftSources: src(0), RightSources: src(1),
	})
	x = core.NewJoin(core.Config{
		Name: "X", NumSources: 3, Window: w, Mode: mode, Account: acct, NextMNS: next, Preds: conj,
		LeftSources: src(0) | src(1), RightSources: src(2), LeftProd: p,
	})
	out = &collector{}
	p.SetConsumer(x, operator.Left)
	x.SetConsumer(out, operator.Left)
	p.SetExact(exact)
	x.SetExact(exact)
	return p, x, out
}

// tup is a one-tuple composite of the three-source plans here, its id
// doubling as its timestamp unless ts says otherwise.
func tup(id uint64, s stream.SourceID, ts stream.Time, vals ...stream.Value) *stream.Composite {
	return stream.NewComposite(3, &stream.Tuple{ID: id, Source: s, TS: ts, Vals: vals})
}

func keysOf(cs []*stream.Composite) []string {
	var ks []string
	for _, c := range cs {
		ks = append(ks, c.Key())
	}
	return ks
}

// TestSPiJoinsOnlyTheTrigger: X stores five right tuples, then detects that
// b1's tag 5 has no partner and P parks b1; a2 arrives at P behind it. The
// right arrival t (tag 5) takes the MNS from X's buffer and P returns a2·b1
// as S_Π. X's MNS already checked the five tuples stored before t, so the
// S_Π composite is compared with t alone: X charges one comparison for the
// buffer probe, one for t's probe of a1·b1 and one for a2·b1 against t —
// eight while S_Π scanned the whole right state.
func TestSPiJoinsOnlyTheTrigger(t *testing.T) {
	for _, exact := range []bool{false, true} {
		t.Run(fmt.Sprintf("exact=%t", exact), func(t *testing.T) {
			p, x, out := seenPlan(core.JIT(), exact)
			for v := stream.Value(9); v < 14; v++ {
				x.Consume(tup(uint64(v), 2, stream.Time(v-8), v), operator.Right)
			}
			p.Consume(tup(10, 0, 10, 1), operator.Left)     // a1
			p.Consume(tup(11, 1, 11, 1, 5), operator.Right) // b1: a1·b1 finds no partner at X
			p.Consume(tup(12, 0, 12, 1), operator.Left)     // a2: b1 is parked
			if c := p.Counters(); c.Suspended != 1 || len(out.got) != 0 {
				t.Fatalf("P parked %d tuples and X delivered %d results; want 1 and 0", c.Suspended, len(out.got))
			}
			before := x.Counters().Comparisons
			x.Consume(tup(13, 2, 13, 5), operator.Right) // t
			if got, want := keysOf(out.got), []string{"0:10|1:11|2:13", "0:12|1:11|2:13"}; !slices.Equal(got, want) {
				t.Fatalf("X delivered %v, want %v", got, want)
			}
			if got := x.Counters().Comparisons - before; got != 3 {
				t.Errorf("X charged %d comparisons for t and its S_Π, want 3", got)
			}
		})
	}
}

// TestLapsedMNSFindsLaterArrival: X's MNS over b1's tag 5 leaves its buffer
// at its expiry (120), claiming the one right tuple stored by then. A duplicate
// suspension has raised P's anchor to 140, so P still holds b1 and b2, parked
// under the MNS, when the right tuple c (tag 5, at 130) is stored. P's anchor
// then expires and a2·b2 reaches X late: it must find c, stored after the
// claim, as REF joined them live. Skipping the whole right state loses it.
func TestLapsedMNSFindsLaterArrival(t *testing.T) {
	script := func(mode core.Mode, exact bool) []string {
		p, x, out := seenPlan(mode, exact)
		x.Consume(tup(1, 2, 1, 9), operator.Right)
		p.Consume(tup(10, 0, 10, 1), operator.Left)     // a1
		p.Consume(tup(20, 1, 20, 1, 5), operator.Right) // b1: X's MNS expires at 120
		dup := &feedback.MNS{
			ID: 9, Sources: stream.SourceSet(0).Add(1), Expiry: 140,
			Sig: feedback.Signature{{Attr: predicate.Attr{Source: 1, Col: 1}, Val: 5}},
		}
		p.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: []*feedback.MNS{dup}})
		p.Consume(tup(50, 1, 50, 1, 5), operator.Right) // b2: diverted
		p.Consume(tup(60, 0, 60, 1), operator.Left)     // a2
		x.Consume(tup(120, 2, 120, 9), operator.Right)  // X's MNS lapses
		x.Consume(tup(130, 2, 130, 5), operator.Right)  // c
		p.Sweep(140)
		return keysOf(out.got)
	}
	want := script(core.REF(), false)
	if !slices.Equal(want, []string{"0:60|1:50|2:130"}) {
		t.Fatalf("REF delivered %v, want the one final a2·b2·c", want)
	}
	for _, exact := range []bool{false, true} {
		if got := script(core.JIT(), exact); !slices.Equal(got, want) {
			t.Errorf("exact=%t: JIT delivered %v, REF %v", exact, got, want)
		}
	}
}

// TestNestedSPiIsNotDeferred: Q joins sources 0 and 1 and feeds the left
// input of P, which joins source 2 on 1.c0 = 2.c0. b (tag 5) is parked at P
// under a hand-built MNS over source 2; P then detects that a0·a1 has no
// right partner, and Q parks a1, so a0' arrives at Q alone. Resuming b,
// P's Process_Input takes its own MNS from the buffer and processes Q's
// answer, a0'·a1, inside b's recovery. What b built itself is deferred under
// b's MNS; the nested S_Π result is not — in general it need not contain b
// (DESIGN.md §2), and a consumer must join it with everything it stores.
func TestNestedSPiIsNotDeferred(t *testing.T) {
	for _, exact := range []bool{false, true} {
		t.Run(fmt.Sprintf("exact=%t", exact), func(t *testing.T) {
			const w = 100
			ids := uint64(100)
			next := func() uint64 { ids++; return ids }
			acct := &metrics.Account{}
			src := func(s stream.SourceID) stream.SourceSet { return stream.SourceSet(0).Add(s) }
			conj := predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}, {Left: 1, LCol: 0, Right: 2, RCol: 0}}
			q := core.NewJoin(core.Config{
				Name: "Q", NumSources: 3, Window: w, Mode: core.JIT(), Account: acct, NextMNS: next, Preds: conj,
				LeftSources: src(0), RightSources: src(1),
			})
			p := core.NewJoin(core.Config{
				Name: "P", NumSources: 3, Window: w, Mode: core.JIT(), Account: acct, NextMNS: next, Preds: conj,
				LeftSources: src(0) | src(1), RightSources: src(2), LeftProd: q,
			})
			out := &collector{}
			q.SetConsumer(p, operator.Left)
			p.SetConsumer(out, operator.Left)
			q.SetExact(exact)
			p.SetExact(exact)

			m := &feedback.MNS{
				ID: 9, Sources: src(2), Expiry: 1000,
				Sig: feedback.Signature{{Attr: predicate.Attr{Source: 2, Col: 1}, Val: 5}},
			}
			p.Consume(tup(1, 2, 1, 2, 5), operator.Right) // b
			p.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: []*feedback.MNS{m}})
			p.Consume(tup(2, 2, 2, 3, 6), operator.Right) // keeps P's right state non-empty
			q.Consume(tup(3, 1, 3, 2), operator.Right)    // a1
			q.Consume(tup(4, 0, 4, 2), operator.Left)     // a0: P detects a0·a1 undemanded, Q parks a1
			q.Consume(tup(5, 0, 5, 2), operator.Left)     // a0'
			if c := q.Counters(); c.Suspended != 1 || len(out.got) != 0 {
				t.Fatalf("Q parked %d tuples and P delivered %d results; want 1 and 0", c.Suspended, len(out.got))
			}

			got := p.Feedback(feedback.Message{Cmd: feedback.Resume, MNS: []*feedback.MNS{m}})
			var tags []string
			for _, d := range got {
				tag := "nil"
				if d.MNS != nil {
					tag = fmt.Sprint(d.MNS.ID)
				}
				tags = append(tags, d.C.Key()+"@"+tag)
			}
			if want := []string{"0:4|1:3|2:1@9", "0:5|1:3|2:1@nil"}; !slices.Equal(tags, want) {
				t.Fatalf("resuming b returned %v, want %v", tags, want)
			}
		})
	}
}

// TestResumedPartnerOlderThanTheClaim: X parks the right tuple c (tag 5)
// under a hand-built MNS of its own consumer before it detects that a1·b1
// has no right partner, so that detection never sees c. The MNS lapses at
// its expiry (110) claiming every right sequence so far, c's included; only
// then does c resume and return to X's right state with its old sequence.
// When P's anchor expires, the results it releases under the MNS must still
// meet c, as REF joined them live: a resumption that re-entered the state
// after the claim voids it.
func TestResumedPartnerOlderThanTheClaim(t *testing.T) {
	mC := &feedback.MNS{
		ID: 9, Sources: stream.SourceSet(0).Add(2), Expiry: 1000,
		Sig: feedback.Signature{{Attr: predicate.Attr{Source: 2, Col: 0}, Val: 5}},
	}
	script := func(mode core.Mode, exact bool) (resumed, swept []string) {
		p, x, out := seenPlan(mode, exact)
		p.Consume(tup(10, 1, 10, 1, 5), operator.Right) // b1
		x.Consume(tup(11, 2, 11, 9), operator.Right)
		x.Consume(tup(18, 2, 18, 5), operator.Right) // c
		x.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: []*feedback.MNS{mC}})
		p.Consume(tup(22, 0, 22, 1), operator.Left)     // a1: X detects a1·b1 undemanded until 110
		p.Consume(tup(30, 1, 30, 1, 5), operator.Right) // b2: diverted
		p.Consume(tup(35, 0, 35, 1), operator.Left)     // a2
		x.Sweep(111)
		resumed = keysOf(composites(x.Feedback(feedback.Message{Cmd: feedback.Resume, MNS: []*feedback.MNS{mC}})))
		n := len(out.got)
		p.Sweep(112)
		swept = keysOf(out.got[n:])
		slices.Sort(swept)
		return append(keysOf(out.got[:n]), resumed...), swept
	}
	live, _ := script(core.REF(), false)
	slices.Sort(live)
	if want := []string{"0:22|1:10|2:18", "0:22|1:30|2:18", "0:35|1:10|2:18", "0:35|1:30|2:18"}; !slices.Equal(live, want) {
		t.Fatalf("REF delivered %v, want %v", live, want)
	}
	// Exact delivery builds REF's four finals; legacy drops a1·b1·c and
	// a2·b1·c with their expired parts but must deliver the two that P's
	// anchor releases with b2.
	early, swept := script(core.JIT(), true)
	if got := append(early, swept...); !slices.Equal(sorted(got), live) {
		t.Errorf("exact: JIT delivered %v, REF %v", got, live)
	}
	if _, swept := script(core.JIT(), false); !slices.Equal(swept, []string{"0:22|1:30|2:18", "0:35|1:30|2:18"}) {
		t.Errorf("legacy: P's anchor released %v, want a1·b2·c and a2·b2·c", swept)
	}
}

func sorted(ks []string) []string {
	ks = slices.Clone(ks)
	slices.Sort(ks)
	return ks
}

// TestDuplicateHandsOnTheBufferedDescriptor: X detects that a1·b1 has no
// right partner and buffers its MNS, guarding; P parks b1 under it. P's
// entry then leaves while X still buffers the MNS (a resumption driven by
// hand), b1 is back in P's state, and a2·b1 reaches X: a duplicate, which
// X's buffer drops. P must get the buffered descriptor, not the dropped
// one, for its new entry: when the entry's anchor expires, a3·b1 is
// released under it and X, whose MNS still guards, skips its five right
// tuples: it charges one comparison, the detection's lookup that follows a
// probe with no match. With the dropped descriptor's empty claim it compared
// a3·b1 with each of the five as well, six in all.
func TestDuplicateHandsOnTheBufferedDescriptor(t *testing.T) {
	p, x, out := seenPlan(core.JIT(), true)
	for v := stream.Value(9); v < 14; v++ {
		x.Consume(tup(uint64(v), 2, stream.Time(v-8), v), operator.Right)
	}
	p.Consume(tup(10, 0, 10, 1), operator.Left)     // a1
	p.Consume(tup(11, 1, 11, 1, 5), operator.Right) // b1: X detects, P parks b1
	_, black, _ := p.Side(operator.Right)
	first := black.List()[0].MNS
	if first.Seen != feedback.Guarding {
		t.Fatalf("X's MNS claims %d, want it guarding", first.Seen)
	}
	p.Feedback(feedback.Message{Cmd: feedback.Resume, MNS: []*feedback.MNS{first}})
	p.Consume(tup(20, 0, 20, 1), operator.Left) // a2: a2·b1 is X's duplicate detection
	if n := black.Len(); n != 1 || black.List()[0].MNS != first {
		t.Fatalf("P's %d entries hold %v, want the buffered %v", n, black.List()[0].MNS, first)
	}
	p.Consume(tup(30, 0, 30, 1), operator.Left) // a3: b1 is parked
	before := x.Counters().Comparisons
	p.Sweep(111) // P's anchor expires: b1 recovers with a3
	if got, want := keysOf(out.got), []string(nil); !slices.Equal(got, want) {
		t.Fatalf("X delivered %v, want nothing", got)
	}
	if got := x.Counters().Comparisons - before; got != 1 {
		t.Errorf("X charged %d comparisons for a3·b1, want 1", got)
	}
}
