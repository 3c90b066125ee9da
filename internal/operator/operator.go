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
	// Owed reports to visit every item this producer's subtree still
	// defers, with the oldest result TS it can still build: the tuples
	// parked in the subtree (lb their TS) and the pairs suppressed there
	// under marks (lb their result's TS). Every result still owed downstream
	// contains one of those items, so it carries the item's values and is no
	// older than its lb. An exact-mode consumer keeps a retired state entry
	// e only while such a result could still pair with it: one agreeing with
	// e on the crossing equi-key, with TS below e.MinTS + window (DESIGN.md
	// §4). Items whose lb is at or past below may be left out. An item
	// deferred under an MNS whose claim the asking consumer honours (c)
	// counts only with the results it can still build below the clock the
	// MNS was detected at.
	Owed(c feedback.Claims, below stream.Time, visit feedback.OwedFunc)
	// Owing is what Owed reports when no claim is honoured, summed from the
	// subtree's caches without a walk: the oldest lb, feedback.NoExpiry when
	// nothing is owed, and how many items there are.
	Owing() (oldest stream.Time, n int)
}
