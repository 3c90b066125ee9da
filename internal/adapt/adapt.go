// Package adapt implements mid-run plan re-optimization (DESIGN.md §7): the
// streaming analogue of Eddies' per-tuple routing and MJoin's refusal to
// commit to one static join order, built on the paper's own premise that
// just-in-time feedback reveals where join work is being wasted.
//
// A Controller watches one signal over fixed decision epochs: the difference
// between the plan's totals (plan.Built.Totals) now and at the last epoch
// close — its CostUnits, and the feedback pressure it holds (MNSDetected +
// Suspended + SuppressedPairs). At each epoch boundary it scores the current
// shape against candidate plan.Node shapes by shadow replay — the epoch's
// arrivals run through throwaway plans of each shape, measured in the same
// deterministic cost units as the live run, and charged to the run ledger's
// AdaptUnits so adaptive runs carry their decision overhead honestly. When a
// candidate beats the current shape by the hysteresis margin for Patience
// consecutive epochs, the controller migrates.
//
// There is one epoch close (Controller.closeEpoch) and one place a decision is
// made (Coordinator): a fleet replica reaches the close from the shard runner's
// barrier markers (AtBarrier) and exchanges its observation with its peers; a
// solo controller reaches it from Decide on its own clock and is a fleet of
// one, exchanging with a one-replica Coordinator it makes at Attach.
//
// # The snapshot cut and the handoff
//
// A migration happens at a quiescent cut between arrivals, after the engine
// has drained the plan's timer deadlines to the cut time. The §2
// sequence discipline gives the cut its snapshot: every in-window base tuple
// sits in exactly one place — its source's feed side, active in the state or
// parked in a blacklist — so plan.Built.SnapshotInWindow (backed by the
// core.JoinOp.SnapshotBase hook) reconstructs
// the in-window arrival history in global arrival order. plan.Built.Reshape
// then swaps the operator tree — and only the tree: the plan object, its
// sink, run ledger, account, tracer and the dedup gate at its root stay —
// and replaying the snapshot into the fresh operators yields exactly the
// state a plan of the target shape would hold had it started one window
// before the cut; intermediate states, blacklists, MNS buffers and mark
// tables are re-derived rather than transplanted, because a different shape
// stores different intermediates. The same snapshot+replay pair is the
// checkpoint/restore primitive: a checkpoint is (cut time, snapshot); restore
// is build+replay (internal/serve).
//
// # Why no result is lost or duplicated
//
// The run's one sink is fronted by the dedup gate (operator.Dedup) keyed on
// the canonical result identity (stream.Composite.Key). Exact-once delivery
// across the handoff follows from exact-delivery mode (required: the engine
// rejects Reopt without Drain):
//
//   - nothing is lost: draining the outgoing operators to the cut delivers
//     every result whose window closes by the cut; any result still
//     undelivered has all constituents inside the snapshot window, so the new
//     tree regenerates it — live during replay (delivered through the gate)
//     or suspended, to be delivered by a later resume, sweep or the
//     end-of-run drain;
//   - nothing is duplicated: a result the outgoing operators already
//     delivered and the new tree regenerates is absorbed by the gate
//     (Counters.MigrationDups counts these).
//
// Determinism is preserved: the cut point, the snapshot order (tuple IDs are
// the global arrival sequence), the replay and the scoring are all pure
// functions of the seeded workload, so two runs of the same configuration
// migrate at the same instant and deliver byte-identical sink orders.
package adapt

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/stream"
)

// Config tunes the re-optimization policy.
type Config struct {
	// Epoch is the decision-epoch length in application time. Zero disables
	// the epoch policy (only ForceAt/ForceTo migrations can then fire).
	Epoch stream.Time
	// Margin is the hysteresis factor: a candidate wins an epoch only when
	// currentCost > candidateCost × Margin. Zero means 1.25.
	Margin float64
	// Patience is the number of consecutive winning epochs the same
	// candidate needs before the migration fires. Zero means 2.
	Patience int
	// Log, when non-nil, receives one line per epoch decision and per
	// migration.
	Log io.Writer
	// ForceAt / ForceTo bypass the policy: migrate unconditionally to
	// ForceTo at the first arrival with TS >= ForceAt. The migration-
	// equivalence tests use this to exercise the handoff in modes whose
	// feedback machinery (and thus the policy's signal) is disabled.
	ForceAt stream.Time
	ForceTo *plan.Node
}

func (c Config) margin() float64 {
	if c.Margin <= 0 {
		return 1.25
	}
	return c.Margin
}

func (c Config) patience() int {
	if c.Patience <= 0 {
		return 2
	}
	return c.Patience
}

// minEpochCost skips scoring for near-idle epochs: an observed cost-unit
// delta below it carries no shape signal.
const minEpochCost = 1024

// rise is the regime-shift trigger: shadow scoring runs only in epochs where
// the epoch difference's cost or its feedback pressure (MNSDetected +
// Suspended + SuppressedPairs) exceeds rise × the previous epoch's, or while a
// hysteresis streak is pending. Steady-state epochs therefore cost no
// scoring overhead at all — the shape question is reopened when the observed
// feedback says the workload changed.
const rise = 1.5

// candidates are the shapes considered for an n-source plan: the bushy and
// left-deep shapes of Table II.
func candidates(n int) []*plan.Node {
	return []*plan.Node{plan.Bushy(n), plan.LeftDeep(n)}
}

// streak is the coordinator's margin-and-patience state: how many consecutive
// scored rounds the same candidate has beaten the current shape by the
// hysteresis margin.
type streak struct {
	wins   int
	winner string
}

// decide folds one scored round into the streak. The challenger is the
// cheapest candidate other than current (ties keep candidate order); it wins
// the round iff scores[current] > its score × Margin. Patience consecutive
// wins by the same challenger fire: the target is returned and the streak
// closes. wins is the streak length this round reached, before any firing.
func (s *streak) decide(cfg Config, current string, cands []*plan.Node, scores map[string]uint64) (target *plan.Node, wins int) {
	var best *plan.Node
	var bestCost uint64
	for _, cand := range cands {
		k := cand.Canonical()
		if k == current {
			continue
		}
		if v, ok := scores[k]; ok && (best == nil || v < bestCost) {
			best, bestCost = cand, v
		}
	}
	if best == nil || float64(scores[current]) <= float64(bestCost)*cfg.margin() {
		*s = streak{}
		return nil, 0
	}
	if k := best.Canonical(); s.winner == k {
		s.wins++
	} else {
		s.winner, s.wins = k, 1
	}
	wins = s.wins
	if wins < cfg.patience() {
		return nil, wins
	}
	*s = streak{}
	return best, wins
}

// Controller is the engine-facing re-optimizer (engine.Reoptimizer). One
// controller drives one run; it is not safe for concurrent use — in sharded
// execution each replica has its own, synchronized through the fleet's
// Coordinator.
type Controller struct {
	cfg   Config
	coord *Coordinator

	b     *plan.Built
	cands []*plan.Node

	gate   *operator.Dedup // spliced in front of the sink by Attach
	lastTS stream.Time     // the last arrival Decide finished with: prune's cut

	// clock times a solo controller's epochs; a fleet replica's stays unset
	// (Period 0) — the shard runner's barrier markers are its clock.
	clock    stream.EpochClock
	epochBuf []*stream.Tuple
	// last is the plan's totals at the last epoch close (or attach, or
	// migration): the epoch's signal is Totals().Sub(last).
	last metrics.Counters
	// prevObserved / prevPressure are the previous epoch's cost and feedback
	// pressure, the regime-shift baselines; noBaseline marks the first epoch,
	// which only establishes them.
	prevObserved uint64
	prevPressure uint64
	noBaseline   bool
	pending      *plan.Node
	forced       bool
}

// New creates a solo controller — a fleet of one: it closes its epochs on its
// own clock, from Decide, against a one-replica Coordinator made at Attach.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg, clock: stream.EpochClock{Period: cfg.Epoch}}
}

// NewCoordinated creates one replica's controller of a sharded fleet: its
// epochs close when the shard runner's barrier markers reach AtBarrier, and
// the decision is the coordinator's, fleet-wide.
func NewCoordinated(cfg Config, coord *Coordinator) *Controller {
	return &Controller{cfg: cfg, coord: coord}
}

// Attach implements engine.Reoptimizer: it binds the controller to the
// run's plan and splices the dedup gate between the plan root and
// the sink, so every delivery of the run is recorded from the first arrival
// on. Each epoch close and each migration prunes the gate to the deliveries
// still in window, the only ones a later handoff can regenerate.
func (c *Controller) Attach(b *plan.Built) {
	c.b = b
	c.cands = candidates(b.Catalog.NumSources())
	if c.coord == nil {
		c.coord = NewCoordinator(1, b.Shape(), b.Catalog.NumSources(), c.cfg)
	}
	c.gate = operator.NewDedup(b.Sink, &b.RunLedger.MigrationDups)
	b.RootJoin().SetConsumer(c.gate, operator.Left)
	c.last = b.Totals()
	c.noBaseline = true
}

// Decide implements engine.Reoptimizer: it accumulates the epoch's arrival
// buffer, closes the epoch at a boundary of the controller's own clock (solo
// only), and reports whether a migration is due at this arrival's timestamp.
// A migration pending at a boundary postpones the close to the next arrival.
func (c *Controller) Decide(t *stream.Tuple, b *plan.Built) bool {
	due := c.clock.Period > 0 && c.clock.Due(t.TS) // the first arrival arms the clock
	if c.cfg.ForceTo != nil && !c.forced && t.TS >= c.cfg.ForceAt {
		c.forced = true
		if c.cfg.ForceTo.Canonical() != c.b.Shape().Canonical() {
			c.pending = c.cfg.ForceTo
			c.coord.commit(c.cfg.ForceTo)
		}
	}
	if due && c.pending == nil {
		c.closeEpoch(t.TS)
		c.clock.Advance(t.TS)
	}
	// Only now is this arrival the prune cut: its sweeps fire after Decide
	// returns, so an epoch close prunes at the previous arrival, as at a barrier.
	c.lastTS = t.TS
	// The epoch buffer feeds shadow scoring and is trimmed at each epoch
	// close (resetEpoch); with the epoch policy disabled (Epoch 0,
	// ForceTo-only mode) nothing would ever trim it, so don't retain at all.
	if c.cfg.Epoch > 0 {
		c.epochBuf = append(c.epochBuf, t)
	}
	return c.pending != nil
}

// AtBarrier closes a fleet replica's epoch: the shard runner's replica source
// calls it on reaching an epoch-barrier marker, with the timestamp of the
// arrival that crossed the boundary in the global stream. It blocks in the
// coordinator until every live replica has arrived; the fleet-wide decision
// is applied at the replica's next arrival.
func (c *Controller) AtBarrier(ts stream.Time) { c.closeEpoch(ts) }

// Leave deregisters a fleet replica from the coordinator's barriers at
// end-of-stream.
func (c *Controller) Leave() { c.coord.Leave() }

// Migrate implements engine.Reoptimizer: snapshot the plan at the cut, reshape
// it in place under the target shape (plan.Built.Reshape: same plan object,
// sink, run ledger, account, tracer and dedup gate; fresh operators) and
// replay the snapshot into them. It returns b: the tree changed.
func (c *Controller) Migrate(cut stream.Time, b *plan.Built) *plan.Built {
	target := c.pending
	c.pending = nil
	if target == nil {
		return nil
	}
	c.prune()
	from := b.Shape().Canonical()
	note := from + " -> " + target.Canonical()
	b.Trace.MigrationStart(cut, note)
	snap := b.SnapshotInWindow(cut)
	// The retired operators' state stays charged to the account while the
	// snapshot replays — both trees are resident for that span — and is
	// released after it.
	oldLive := b.Account.LiveByOp()
	b.Reshape(target)
	b.Trace.MigrationCut(cut, len(snap), note)
	b.ReplayInWindow(snap)
	b.Account.FreeAll(oldLive)
	b.RunLedger.Migrations++
	b.Trace.MigrationDone(cut, b.RunLedger.MigrationDups, note)
	c.logf("adapt: t=%v migrate %s -> %s (replayed %d in-window arrivals, %d dups absorbed so far)",
		cut, from, target.Canonical(), len(snap), b.RunLedger.MigrationDups)
	c.last = b.Totals()
	c.noBaseline = true // the new tree re-baselines its steady state
	return b
}

// closeEpoch is the one epoch close, at application time now. The gate: a
// near-idle epoch carries no shape signal; the first epoch only establishes
// the baselines; after that the shape question reopens when the epoch's cost
// or feedback pressure jumps by the rise factor against the previous epoch's,
// and stays open while the fleet's hysteresis streak is pending — so
// steady-state epochs cost no scoring at all. The observation, with shadow
// scores only if the gate opened, goes through the coordinator, which blocks
// until every live replica has reported and decides on the summed scores only
// when all of them scored: a chronically idle shard (extreme key skew)
// conservatively holds migrations, its signal would be meaningless anyway.
func (c *Controller) closeEpoch(now stream.Time) {
	c.prune()
	d := c.b.Totals().Sub(c.last)
	observed, prev := d.CostUnits(), c.prevObserved
	c.b.Trace.Epoch(now, observed)
	mns, susp, suppr := d.MNSDetected, d.Suspended, d.SuppressedPairs
	idle := observed < minEpochCost
	var scores map[string]uint64
	if reopened := c.reopened(d); !idle && (reopened || c.coord.StreakOpen()) {
		scores = c.scoreShapes()
	}
	target, sums, wins := c.coord.Exchange(observed, scores)
	switch {
	case idle:
		c.logf("adapt: epoch t=%v idle (cost=%d mns=%d susp=%d suppressed=%d) — skip scoring",
			now, observed, mns, susp, suppr)
	case scores == nil:
		c.logf("adapt: epoch t=%v steady (cost=%d prev=%d mns=%d susp=%d suppressed=%d) — keep %s",
			now, observed, prev, mns, susp, suppr, c.b.Shape().Canonical())
	default:
		c.logf("adapt: epoch t=%v cost=%d mns=%d susp=%d suppressed=%d scores=%s wins=%d/%d",
			now, observed, mns, susp, suppr, renderScores(sums), wins, c.cfg.patience())
	}
	if target != nil && target.Canonical() != c.b.Shape().Canonical() {
		c.pending = target
	}
	c.resetEpoch()
}

// prune drops the gate's deliveries whose oldest constituent left the window
// by the last arrival: every later migration cuts at a later arrival, and
// replays only what is in window there. A fleet barrier's timestamp is no
// such bound: a replica's reorder buffer may still release older arrivals.
func (c *Controller) prune() { c.gate.Prune(c.lastTS, c.b.Window, nil) }

// scoreShapes shadow-replays the epoch's arrivals through a throwaway plan
// of every distinct shape (current first, then candidates) and returns the
// cost units each accrued, charging the total to the run ledger's AdaptUnits.
//
// The shadows run in REF mode regardless of the live mode: a shape's score
// is its intrinsic join work on the slice — which intermediates it
// manufactures and drags through probes. Scoring with the feedback
// machinery on would be circular (a shadow plan starts empty, so its very
// first inputs meet empty states and Ø-suspend the whole pipeline,
// flattening every shape to noise), whereas the REF score is exactly the
// production the live mode's suppression then fights; minimizing it helps
// REF and JIT alike.
func (c *Controller) scoreShapes() map[string]uint64 {
	opts := c.b.Opt()
	opts.KeepResults = false
	opts.Mode = core.REF()
	out := make(map[string]uint64, 1+len(c.cands))
	for _, sh := range append([]*plan.Node{c.b.Shape()}, c.cands...) {
		k := sh.Canonical()
		if _, done := out[k]; done {
			continue
		}
		sb := plan.BuildTree(c.b.Catalog, c.b.Preds(), sh, opts)
		sb.ReplayInWindow(c.epochBuf)
		out[k] = sb.Totals().CostUnits()
		c.b.RunLedger.AdaptUnits += out[k]
	}
	return out
}

// reopened applies the regime-shift gate for one epoch close: it compares the
// cost and the feedback pressure of the epoch's counter difference d against
// the previous epoch's baselines, updates the baselines, and reports whether
// either jumped by the rise factor. The first epoch only establishes the
// baselines. Exactly one call per epoch close (baselines advance on every
// call).
func (c *Controller) reopened(d metrics.Counters) bool {
	observed, pressure := d.CostUnits(), d.MNSDetected+d.Suspended+d.SuppressedPairs
	prevCost, prevPressure, first := c.prevObserved, c.prevPressure, c.noBaseline
	c.prevObserved, c.prevPressure, c.noBaseline = observed, pressure, false
	if first {
		return false
	}
	return float64(observed) > rise*float64(prevCost) ||
		(pressure > 0 && float64(pressure) > rise*float64(prevPressure))
}

// resetEpoch starts the next observation epoch from the current totals.
func (c *Controller) resetEpoch() {
	c.epochBuf = c.epochBuf[:0]
	c.last = c.b.Totals()
}

func (c *Controller) logf(format string, args ...interface{}) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, format+"\n", args...)
	}
}

// renderScores formats a score map with sorted keys, for deterministic logs.
func renderScores(scores map[string]uint64) string {
	keys := make([]string, 0, len(scores))
	for k := range scores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", k, scores[k])
	}
	return s + "}"
}
