package serve

import (
	"repro/internal/operator"
	"repro/internal/stream"
)

// deliverer numbers the run's deliveries: every final result that reaches it
// gets the next delivery sequence number, goes to the sink (counters, ordering
// check) and is published to the subscriber hub. On a durable server the
// dedup gate (operator.Dedup) sits in front of it, so a recovery replay's
// regenerations of committed deliveries never get a number.
//
// Consume runs on the engine goroutine; the hub does its own locking.
type deliverer struct {
	sink *operator.Sink
	hub  *hub
	seq  uint64 // delivery sequence HWM (continues past recovery)
}

// Consume implements operator.Consumer.
func (d *deliverer) Consume(c *stream.Composite, p operator.Port) {
	d.seq++
	d.sink.Consume(c, p)
	// publish may block under the SubBlock policy — that stall propagates
	// back through the engine goroutine to the ingest channel and out to the
	// client's TCP write: the server's bounded-memory backpressure chain.
	d.hub.publish(Delivery{Seq: d.seq, TS: c.TS, Key: c.Key()})
}
