package core_test

import (
	"slices"

	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// TestEmptySideSignatureMarksNothing drives one operator with a hand-built
// Type II MNS — it spans both inputs — whose signature constrains the left
// one only. The origin marks the left tuples carrying its value, stored and
// arriving, and nothing on the right, so no pair is ever suppressed: an
// origin filed under the empty attribute set on its unconstrained side would
// mark every right tuple and park each (5, ·) pair until the unmark. The
// marks outlive the unmark and suppress nothing after it.
func TestEmptySideSignatureMarksNothing(t *testing.T) {
	cfg := core.Config{
		Name: "X", NumSources: 2, Window: 1000, Mode: core.JIT(),
		Preds:       predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}},
		Account:     &metrics.Account{},
		NextMNS:     func() uint64 { return 1 },
		LeftSources: stream.SourceSet(0).Add(0), RightSources: stream.SourceSet(0).Add(1),
	}
	x := core.NewJoin(cfg)
	out := &collector{}
	x.SetConsumer(out, operator.Left)
	tuple := func(id uint64, src stream.SourceID, v stream.Value) *stream.Composite {
		return stream.NewComposite(2, &stream.Tuple{ID: id, Source: src, TS: stream.Time(id), Vals: []stream.Value{v}})
	}
	l5, l6, r5 := tuple(1, 0, 5), tuple(2, 0, 6), tuple(3, 1, 5)
	x.Consume(l5, operator.Left)
	x.Consume(l6, operator.Left)
	x.Consume(r5, operator.Right)
	if len(out.got) != 1 {
		t.Fatalf("%d results before the suspension, want 1", len(out.got))
	}

	oneSided := &feedback.MNS{
		ID: 9, Sources: stream.SourceSet(0).Add(0).Add(1),
		Sig:    feedback.Signature{{Attr: predicate.Attr{Source: 0, Col: 0}, Val: 5}},
		Expiry: 900,
	}
	x.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: []*feedback.MNS{oneSided}})
	if !l5.HasMark(9) || l6.HasMark(9) || r5.HasMark(9) {
		t.Fatalf("stored tuples marked: l5=%v l6=%v r5=%v, want only l5", l5.HasMark(9), l6.HasMark(9), r5.HasMark(9))
	}

	l5b, r5b, r6 := tuple(4, 0, 5), tuple(5, 1, 5), tuple(6, 1, 6)
	x.Consume(l5b, operator.Left)  // joins r5
	x.Consume(r5b, operator.Right) // joins l5 and l5b
	x.Consume(r6, operator.Right)  // joins l6
	if !l5b.HasMark(9) || r5b.HasMark(9) || r6.HasMark(9) {
		t.Fatalf("arrivals marked: l5b=%v r5b=%v r6=%v, want only l5b", l5b.HasMark(9), r5b.HasMark(9), r6.HasMark(9))
	}
	if c := x.Counters(); c.SuppressedPairs != 0 || len(out.got) != 5 {
		t.Fatalf("%d pairs suppressed and %d results delivered, want 0 and 5", c.SuppressedPairs, len(out.got))
	}

	// The unmark finds nothing pending. l5 and l5b keep the dissolved
	// origin's id, which suppresses nothing: a right arrival joins both live.
	if got := x.Feedback(feedback.Message{Cmd: feedback.Resume, MNS: []*feedback.MNS{oneSided}}); len(got) != 0 {
		t.Fatalf("the unmark generated %d results", len(got))
	}
	x.Consume(tuple(7, 1, 5), operator.Right)
	if c := x.Counters(); !l5.HasMark(9) || !l5b.HasMark(9) || c.SuppressedPairs != 0 || len(out.got) != 7 {
		t.Fatalf("after the unmark: l5 and l5b marked %v/%v, %d pairs suppressed, %d results delivered, want 0 and 7",
			l5.HasMark(9), l5b.HasMark(9), c.SuppressedPairs, len(out.got))
	}
}

// TestJoinFedOriginSendsNothingUpstream drives a two-operator plan — P joins
// sources 0 and 1 on column 0 and feeds the left input of X, which joins it
// with source 2 on the same key — and sends X a hand-built Type II MNS over
// sources 0 and 2: left inputs tagged 7 in column 1 against right inputs
// tagged 7. X suppresses exactly those pairs, stored and arriving, and its
// resume delivers them, so the finals are REF's. The suspension is X's
// business alone: P's ledger and deadline read what they read in the same
// run without it, and X sends no feedback.
func TestJoinFedOriginSendsNothingUpstream(t *testing.T) {
	const w = 1000
	src := func(s stream.SourceID) stream.SourceSet { return stream.SourceSet(0).Add(s) }
	conj := predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}, {Left: 1, LCol: 0, Right: 2, RCol: 0}}
	build := func(mode core.Mode) (p, x *core.JoinOp, out *collector) {
		ids := uint64(100)
		next := func() uint64 { ids++; return ids }
		acct := &metrics.Account{}
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
		return p, x, out
	}
	m := &feedback.MNS{
		ID: 9, Sources: src(0) | src(2), Expiry: w / 2,
		Sig: feedback.Signature{{Attr: predicate.Attr{Source: 0, Col: 1}, Val: 7}, {Attr: predicate.Attr{Source: 2, Col: 1}, Val: 7}},
	}
	// Every left composite finds a partner in X's right state, so X detects
	// nothing of its own. The suspension comes after the first four arrivals.
	type arrival struct {
		src      stream.SourceID
		key, tag stream.Value
	}
	arrivals := []arrival{
		{2, 1, 7}, {0, 1, 7}, {1, 1, 0}, // a1·b1·c1, delivered live
		{2, 2, 7},            // c2: stored, then marked at the suspension
		{2, 2, 8}, {2, 1, 7}, // c3 unmarked; c4 suppressed against a1·b1
		{0, 2, 7}, {1, 2, 0}, // a2·b2: suppressed with c2, live with c3
		{0, 2, 8}, {1, 2, 0}, // a3·b2, a2·b3, a3·b3: only a2·b3·c2 suppressed
	}
	const suspendAfter = 4
	// run returns the finals, what the resume returned, X's ledger, and P's
	// ledger and deadline after every arrival.
	type trace struct {
		finals, resumed []*stream.Composite
		x               metrics.Counters
		p               []metrics.Counters
		deadlines       []stream.Time
	}
	run := func(mode core.Mode, suspend bool) (tr trace) {
		p, x, out := build(mode)
		for i, a := range arrivals {
			if suspend && i == suspendAfter {
				x.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: []*feedback.MNS{m}})
			}
			c := stream.NewComposite(3, &stream.Tuple{ID: uint64(i + 1), Source: a.src, TS: stream.Time(i + 1), Vals: []stream.Value{a.key, a.tag}})
			if a.src == 2 {
				x.Consume(c, operator.Right)
			} else {
				p.Consume(c, operator.Port(a.src))
			}
			tr.p = append(tr.p, *p.Counters())
			tr.deadlines = append(tr.deadlines, p.NextDeadline())
		}
		if suspend {
			tr.resumed = composites(x.Feedback(feedback.Message{Cmd: feedback.Resume, MNS: []*feedback.MNS{m}}))
		}
		tr.finals, tr.x = append(out.got, tr.resumed...), *x.Counters()
		return tr
	}

	ref, plain, jit := run(core.REF(), false).finals, run(core.JIT(), false), run(core.JIT(), true)
	if got, want := keys(jit.finals), keys(ref); !slices.Equal(got, want) {
		t.Fatalf("finals %v, REF delivers %v", got, want)
	}
	both7 := func(c *stream.Composite) bool { return c.Comp(0).Vals[1] == 7 && c.Comp(2).Vals[1] == 7 }
	var want []string
	for _, c := range ref[1:] { // a1·b1·c1 came before the suspension
		if both7(c) {
			want = append(want, c.Key())
		}
	}
	slices.Sort(want)
	if got := keys(jit.resumed); len(want) != 3 || !slices.Equal(got, want) {
		t.Fatalf("the resume delivered %v, want the pairs tagged 7 on both sides %v", got, want)
	}
	if c := jit.x; c.SuppressedPairs != 3 || c.Feedbacks != 0 {
		t.Fatalf("X suppressed %d pairs and sent %d feedbacks, want 3 and 0", c.SuppressedPairs, c.Feedbacks)
	}
	for i := range arrivals {
		if jit.p[i] != plain.p[i] || jit.deadlines[i] != plain.deadlines[i] {
			t.Fatalf("after arrival %d P reads %+v with deadline %v; without the suspension %+v with deadline %v",
				i+1, jit.p[i], jit.deadlines[i], plain.p[i], plain.deadlines[i])
		}
	}
}

// keys lists the composites' keys, sorted.
func keys(cs []*stream.Composite) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Key()
	}
	slices.Sort(out)
	return out
}
