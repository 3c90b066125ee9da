package operator

import (
	"testing"

	"repro/internal/checkpoint"
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
	s := NewSink(ctr, true)
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
	out  []feedback.Deferred
}

func (c *captureProducer) CanSuspend() bool                                     { return true }
func (c *captureProducer) Owed(feedback.Claims, stream.Time, feedback.OwedFunc) {}
func (c *captureProducer) Owing() (stream.Time, int)                            { return feedback.NoExpiry, 0 }
func (c *captureProducer) Feedback(m feedback.Message) []feedback.Deferred {
	c.msgs = append(c.msgs, m)
	return c.out
}

type captureConsumer struct{ got []*stream.Composite }

func (c *captureConsumer) Consume(x *stream.Composite, _ Port) { c.got = append(c.got, x) }

func TestSelectionFilterAndFeedback(t *testing.T) {
	ctr := &metrics.Counters{}
	prod := &captureProducer{}
	var id uint64
	sel := NewSelection(predicate.Selection{Source: 0, Col: 0, Op: predicate.GT, Const: 200},
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
	prod.out = []feedback.Deferred{{C: pass}, {C: fail}}
	got := sel.Feedback(feedback.Message{Cmd: feedback.Resume})
	if len(got) != 1 || got[0].C != pass {
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

// TestDedupGate pins the one delivery gate adapt and serve share: a repeated
// key is absorbed and counted, Prune drops exactly the entries whose oldest
// constituent left the window by the cut, and the survivors — carried through
// a checkpoint — make a fresh gate absorb the same regenerations.
func TestDedupGate(t *testing.T) {
	sink := &captureConsumer{}
	var dups uint64
	g := NewDedup(sink, &dups)
	a := stream.NewComposite(1, tpl(0, 10, 1))
	b := stream.NewComposite(1, tpl(0, 20, 2))
	c := stream.NewComposite(1, tpl(0, 30, 3))
	for _, x := range []*stream.Composite{a, b, c} {
		g.Consume(x, Left)
	}
	g.Consume(stream.NewComposite(1, tpl(0, 20, 2)), Left) // b regenerated by a replay
	if len(sink.got) != 3 || dups != 1 {
		t.Fatalf("forwarded %d, absorbed %d; want 3 and 1", len(sink.got), dups)
	}
	g.Consume(a, Left)
	if len(sink.got) != 3 || dups != 2 {
		t.Fatalf("forwarded %d, absorbed %d; want 3 and 2", len(sink.got), dups)
	}

	// window 15, cut 35: a (10+15) and b (20+15, boundary inclusive) age out.
	var keys []checkpoint.DeliveredKey
	g.Prune(35, 15, func(key string, minTS stream.Time) {
		keys = append(keys, checkpoint.DeliveredKey{MinTS: minTS, Key: key})
	})
	if len(keys) != 1 || keys[0] != (checkpoint.DeliveredKey{MinTS: 30, Key: c.Key()}) {
		t.Fatalf("survivors %v, want only %s", keys, c.Key())
	}
	g.Consume(a, Left) // pruned: no longer remembered
	if len(sink.got) != 4 {
		t.Fatal("pruned key still absorbed")
	}
	g.Consume(c, Left) // a survivor: still remembered
	if len(sink.got) != 4 || dups != 3 {
		t.Fatalf("survivor not absorbed after the prune (forwarded %d, dups %d)", len(sink.got), dups)
	}

	ck, err := checkpoint.Decode(checkpoint.Encode(&checkpoint.Checkpoint{Cut: 35, Keys: keys}))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	restored := NewDedup(sink, &dups)
	for _, k := range ck.Keys {
		restored.Seed(k.Key, k.MinTS)
	}
	restored.Consume(c, Left)
	if len(sink.got) != 4 || dups != 4 {
		t.Fatalf("restored gate forwarded a committed delivery (forwarded %d, dups %d)", len(sink.got), dups)
	}
}
