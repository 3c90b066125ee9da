package operator

import (
	"testing"

	"repro/internal/feedback"
	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/stream"
)

func tpl(src stream.SourceID, ts stream.Time, vals ...stream.Value) *stream.Tuple {
	return &stream.Tuple{ID: uint64(ts), Source: src, TS: ts, Vals: vals}
}

func TestSinkOrderingAndRetention(t *testing.T) {
	ctr := &metrics.Counters{}
	s := NewSink("sink", ctr, true)
	a := stream.NewComposite(2, tpl(0, 10, 1))
	b := stream.NewComposite(2, tpl(0, 20, 2))
	s.Consume(a, Left)
	s.Consume(b, Left)
	if s.Count() != 2 || ctr.FinalResults != 2 || s.OrderViolations != 0 {
		t.Fatal("sink counting wrong")
	}
	s.Consume(a, Left) // timestamp goes backwards
	if s.OrderViolations != 1 {
		t.Fatal("order violation not recorded")
	}
	if len(s.Results()) != 3 || len(s.ResultKeys()) != 3 {
		t.Fatal("retention wrong")
	}
}

type captureProducer struct {
	msgs []feedback.Message
	out  []*stream.Composite
}

func (c *captureProducer) Name() string                 { return "cap" }
func (c *captureProducer) OutSources() stream.SourceSet { return stream.SourceSet(0).Add(0) }
func (c *captureProducer) CanSuspend() bool             { return true }
func (c *captureProducer) Feedback(m feedback.Message) []*stream.Composite {
	c.msgs = append(c.msgs, m)
	return c.out
}

type captureConsumer struct{ got []*stream.Composite }

func (c *captureConsumer) Consume(x *stream.Composite, _ Port) { c.got = append(c.got, x) }

func TestSelectionFilterAndFeedback(t *testing.T) {
	ctr := &metrics.Counters{}
	prod := &captureProducer{}
	var id uint64
	sel := NewSelection("σ", predicate.Selection{Source: 0, Col: 0, Op: predicate.GT, Const: 200},
		prod, ctr, true, func() uint64 { id++; return id }, stream.Minute)
	sink := &captureConsumer{}
	sel.SetConsumer(sink, Left)

	pass := stream.NewComposite(1, tpl(0, 1, 300))
	fail := stream.NewComposite(1, tpl(0, 2, 100))
	sel.Consume(pass, Left)
	sel.Consume(fail, Left)
	if len(sink.got) != 1 || sink.got[0] != pass {
		t.Fatal("filter wrong")
	}
	// The rejected input produced a suspension feedback upstream (Fig. 9a).
	if len(prod.msgs) != 1 || prod.msgs[0].Cmd != feedback.Suspend {
		t.Fatalf("want suspension feedback, got %v", prod.msgs)
	}
	if ctr.MNSDetected != 1 {
		t.Fatal("MNS not counted")
	}
	// Relay: downstream feedback passes through; S_Π is filtered.
	prod.out = []*stream.Composite{pass, fail}
	got := sel.Feedback(feedback.Message{Cmd: feedback.Resume})
	if len(got) != 1 || got[0] != pass {
		t.Fatalf("relay filtering wrong: %d", len(got))
	}
	if !sel.CanSuspend() {
		t.Fatal("selection over a join must relay suspendability")
	}
}

func TestPortOpposite(t *testing.T) {
	if Left.Opposite() != Right || Right.Opposite() != Left {
		t.Fatal("opposite wrong")
	}
	if Left.String() != "L" || Right.String() != "R" {
		t.Fatal("render wrong")
	}
}
