package serve

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/plan"
	"repro/internal/stream"
)

// errCrash is the in-process crash sentinel: the kill-point harness arms
// Config.killPoint, the checkpointer panics with this value where it fires, and
// the server's run loop recovers it into a crashed (non-eos) shutdown — the
// fast, race-detectable stand-in for SIGKILL (the subprocess harness covers
// the real signal).
var errCrash = fmt.Errorf("serve: armed crash point reached")

// checkpointer implements engine.Reoptimizer as a durability hook: it never
// migrates the plan (Migrate always returns nil), but a true Decide makes the
// engine drain the outgoing plan's timer deadlines to the arrival's timestamp
// before calling Migrate — exactly the quiescent §7 cut the snapshot needs,
// bought with the seam the adaptive re-optimizer already paid for.
//
// The ingest high-water mark needs one subtlety: Decide observes an arrival
// BEFORE the engine processes it, so at the cut the plan holds everything up
// to the PREVIOUS arrival. The checkpointer therefore promotes the pending ID
// to the HWM only on the next Decide call, when its arrival is fully inside
// the plan. The arrival that triggered the checkpoint is not covered by it —
// the client re-sends it on resume and the session admits it (ID above the
// recovered HWM).
type checkpointer struct {
	st     *checkpoint.Store
	out    *deliverer
	config string

	clock   stream.EpochClock // checkpoint cadence
	hwm     uint64            // last arrival fully processed by the engine
	pending uint64            // arrival currently being processed
	lastTS  stream.Time
	saved   int   // checkpoints written this incarnation
	err     error // first save failure (durability stalls, run continues)

	keys []checkpoint.DeliveredKey // the dedup seed, reused from cut to cut

	kill func(arriving uint64, checkpoints int) bool // Config.killPoint; nil outside the crash harness
}

// Attach implements engine.Reoptimizer.
func (c *checkpointer) Attach(*plan.Built) {}

// Decide implements engine.Reoptimizer: report a checkpoint due when the
// arrival's timestamp crosses the next checkpoint boundary.
func (c *checkpointer) Decide(t *stream.Tuple, _ *plan.Built) bool {
	c.hwm = c.pending // the previous arrival is fully inside the plan now
	c.pending = t.ID
	c.lastTS = t.TS
	c.killCheck()
	return c.clock.Due(t.TS)
}

// killCheck dies at an armed kill point (crash harness only).
func (c *checkpointer) killCheck() {
	if c.kill != nil && c.kill(c.pending, c.saved) {
		panic(errCrash)
	}
}

// Migrate implements engine.Reoptimizer: the engine has drained deadlines to
// the cut; write the checkpoint and keep the plan (nil return).
func (c *checkpointer) Migrate(cut stream.Time, b *plan.Built) *plan.Built {
	c.save(cut, b)
	c.clock.Advance(cut)
	c.killCheck()
	return nil
}

// finish writes the end-of-run checkpoint after the engine's drain: every
// arrival is processed (the pending ID is promoted) and at the natural
// horizon every window has closed, so the snapshot is empty and a restart
// has nothing left to deliver.
func (c *checkpointer) finish(b *plan.Built) {
	c.hwm = c.pending
	c.save(c.lastTS+b.Window, b)
}

// save writes one checkpoint at the cut. A save failure is recorded (first
// error wins) and durability stops advancing, but the run itself continues —
// losing freshness is strictly better than killing a live stream.
//
// Nothing is copied on the way to disk: the seed is collected into a reused
// slice and sorted there, and the delivery tail is the hub ring's own live
// segments (hub.segments: this runs on the engine goroutine, the ring's only
// writer).
func (c *checkpointer) save(cut stream.Time, b *plan.Built) {
	c.keys = c.keys[:0]
	c.out.gate.Prune(cut, b.Window, func(key string, minTS stream.Time) {
		c.keys = append(c.keys, checkpoint.DeliveredKey{MinTS: minTS, Key: key})
	})
	checkpoint.SortKeys(c.keys)
	tail, wrapped := c.out.hub.segments()
	ck := &checkpoint.Checkpoint{
		Cut:         cut,
		IngestHWM:   c.hwm,
		Delivered:   c.out.seq,
		Config:      c.config,
		Keys:        c.keys,
		Tail:        tail,
		TailWrapped: wrapped,
		Rows:        b.SnapshotInWindow(cut),
	}
	if _, err := c.st.Save(ck); err != nil && c.err == nil {
		c.err = err
	} else if err == nil {
		c.saved++
	}
}
