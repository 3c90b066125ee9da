package operator

import (
	"repro/internal/feedback"
	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// Selection filters composites by a single-source comparison (Fig. 9a). As
// a consumer it detects permanent MNSs: a component failing the filter can
// never pass later, so the upstream producer may delete the suspended
// tuples outright (no resumption will ever be issued). As a producer it
// relays feedback from its own consumer to the upstream join (Sec. V).
type Selection struct {
	pred     predicate.Selection
	prod     Producer
	consumer Consumer
	outPort  Port
	ctr      *metrics.Counters
	detect   bool
	nextMNS  func() uint64
	window   stream.Time
}

// NewSelection creates a selection operator. prod may be nil when fed by a
// raw source; detect enables JIT feedback generation; nextMNS supplies
// MNS identifiers (shared with the rest of the plan).
func NewSelection(pred predicate.Selection, prod Producer, ctr *metrics.Counters, detect bool, nextMNS func() uint64, window stream.Time) *Selection {
	return &Selection{pred: pred, prod: prod, ctr: ctr, detect: detect, nextMNS: nextMNS, window: window}
}

// SetConsumer wires the downstream consumer.
func (s *Selection) SetConsumer(c Consumer, port Port) { s.consumer, s.outPort = c, port }

// CanSuspend implements Producer: feedback through a selection reaches the
// upstream join, if any.
func (s *Selection) CanSuspend() bool { return s.prod != nil && s.prod.CanSuspend() }

// DeferredFloor implements Producer: a selection defers nothing itself, and
// what its upstream owes can only shrink on the way through.
func (s *Selection) DeferredFloor(c feedback.Claims) stream.Time {
	if s.prod == nil {
		return feedback.NoExpiry
	}
	return s.prod.DeferredFloor(c)
}

// Feedback implements Producer by relaying to the upstream producer and
// filtering any returned S_Π through the selection.
func (s *Selection) Feedback(msg feedback.Message) []feedback.Deferred {
	if s.prod == nil {
		return nil
	}
	out := s.prod.Feedback(msg)
	if len(out) == 0 {
		return nil
	}
	kept := out[:0]
	for _, d := range out {
		s.ctr.Comparisons++
		if s.pred.Holds(d.C) {
			kept = append(kept, d)
		}
	}
	return kept
}

// Consume implements Consumer: evaluate the filter, forward survivors, and
// issue permanent suspension feedback for rejected inputs.
func (s *Selection) Consume(c *stream.Composite, _ Port) {
	s.ctr.Comparisons++
	if s.pred.Holds(c) {
		if s.consumer != nil {
			s.consumer.Consume(c, s.outPort)
		}
		return
	}
	if !s.detect || s.prod == nil || !s.prod.CanSuspend() {
		return
	}
	// The failing component is the predicate's source; its rejection is
	// value-determined and permanent for this exact value... only for
	// equality-shaped knowledge. We anchor the MNS on this component and
	// let it expire with the component (conservative but always sound).
	t := c.Comp(s.pred.Source)
	if t == nil {
		return
	}
	attr := predicate.Attr{Source: s.pred.Source, Col: s.pred.Col}
	sig := feedback.Signature{{Attr: attr, Val: t.Vals[s.pred.Col]}}
	m := &feedback.MNS{
		ID:      s.nextMNS(),
		Sources: stream.SourceSet(0).Add(s.pred.Source),
		Sig:     sig,
		Expiry:  t.TS + s.window,
	}
	s.ctr.MNSDetected++
	s.ctr.Feedbacks++
	s.prod.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: []*feedback.MNS{m}})
}
