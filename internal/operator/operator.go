// Package operator defines the operator abstractions of the execution plan
// — the producer/consumer contract, feedback routing, and the simple
// (non-join) operators: sinks and selections (Sec. V).
package operator

import (
	"repro/internal/feedback"
	"repro/internal/stream"
)

// Port distinguishes the two inputs of a binary operator.
type Port int

// Binary operator input ports.
const (
	Left  Port = 0
	Right Port = 1
)

func (p Port) String() string {
	if p == Left {
		return "L"
	}
	return "R"
}

// Opposite returns the other port.
func (p Port) Opposite() Port { return 1 - p }

// Consumer receives composites produced by an upstream operator.
type Consumer interface {
	// Consume delivers one composite to the given input port. In the
	// pipelined engine this recurses into the consumer's processing; in the
	// queued engine it enqueues.
	Consume(c *stream.Composite, to Port)
}

// DeferredConsumer is a Consumer that can also take a recovery with the MNS
// it was deferred under (feedback.Deferred): a join that detected the MNS
// skips the partners it ruled out. A producer emits a recovery deferred
// under an MNS to it, and to Consume otherwise.
type DeferredConsumer interface {
	Consumer
	ConsumeDeferred(d feedback.Deferred, to Port)
}

// Producer is the upstream handle a consumer sends feedback to.
type Producer interface {
	// Feedback delivers a feedback message. For Resume commands the return
	// value is S_Π — the demanded partial results the consumer must join
	// with its current input t and append to its state (Sec. III-A). The
	// ones built directly from a tuple parked, or a pair suppressed, under a
	// resumed MNS come deferred under it: the consumer's MNS already proved
	// that no opposite tuple it stored before t matches them, so it joins
	// them with t and what followed. For Suspend it returns nil.
	Feedback(msg feedback.Message) []feedback.Deferred
	// CanSuspend reports whether feedback can have any effect here: true
	// for join operators and for relays whose upstream chain reaches a
	// join. Consumers skip MNS detection on ports whose producer cannot
	// suspend (e.g. raw sources).
	CanSuspend() bool
	// DeferredFloor returns a lower bound on the timestamp of every result
	// this producer still owes its consumer: the oldest TS among the tuples
	// parked in the producer's subtree and the results of the pairs
	// suppressed there, or feedback.NoExpiry when the subtree defers
	// nothing. Every owed result contains one of those items, and a
	// composite's TS is the largest of its parts'. An exact-mode consumer
	// keeps a retired state entry e only while a result at or above this
	// floor could still pair with it: pairValid needs the reader's TS below
	// e.MinTS + window (DESIGN.md §4).
	DeferredFloor() stream.Time
}
