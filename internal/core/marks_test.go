package core_test

import (
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
// mark every right tuple and park each (5, ·) pair until the unmark.
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

	// The unmark finds nothing pending and clears what the origin marked.
	if got := x.Feedback(feedback.Message{Cmd: feedback.Resume, MNS: []*feedback.MNS{oneSided}}); len(got) != 0 {
		t.Fatalf("the unmark generated %d results", len(got))
	}
	if l5.HasMark(9) || l5b.HasMark(9) {
		t.Fatal("marks survive the unmark")
	}
}
