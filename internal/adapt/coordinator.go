package adapt

import (
	"sync"

	"repro/internal/plan"
)

// Coordinator makes the epoch decision fleet-wide for sharded execution
// (DESIGN.md §7): the shard runner broadcasts an epoch-barrier marker into
// every replica's channel when the global stream crosses an epoch boundary,
// each replica scores its local epoch slice at the barrier, and the
// coordinator sums the scores and applies one margin+patience decision that
// every replica then adopts — the replicas migrate in lockstep to the same
// shape, each performing its own snapshot+replay handoff at its next local
// arrival.
//
// The exchange is a barrier: Exchange blocks until every live replica has
// reported its round, so the decision is a pure function of the summed
// scores — goroutine scheduling cannot affect it, which keeps sharded
// adaptive runs as deterministic as non-adaptive ones. Replicas whose
// substream ends call Leave, shrinking the barrier; a replica can never
// block the fleet while holding undrained input, because barrier markers
// are enqueued in every channel before any post-boundary tuple.
type Coordinator struct {
	mu   sync.Mutex
	cond *sync.Cond
	cfg  Config
	// cands are the candidate shapes; shapes are immutable, so sharing them
	// across replicas is safe.
	cands []*plan.Node
	// committed is the canonical shape the fleet currently runs (replicas
	// apply decisions lazily, at their next arrival, but decisions are
	// always made relative to the last committed shape).
	committed string

	n, arrived  int
	scored      int
	round       int
	sumObserved uint64
	sums        map[string]uint64
	streak      streak
	decision    *plan.Node
}

// NewCoordinator creates a coordinator for n replicas of a plan whose
// current shape is base.
func NewCoordinator(n int, base *plan.Node, numSources int, cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:       cfg,
		n:         n,
		cands:     candidates(numSources),
		committed: base.Canonical(),
		sums:      make(map[string]uint64),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// StreakOpen reports whether a hysteresis streak is pending fleet-wide;
// replicas keep scoring while it is, so streak rounds are never partial.
func (c *Coordinator) StreakOpen() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streak.wins > 0
}

// Exchange reports one replica's observed epoch cost — with shadow scores
// only when the replica's steady-state gate opened (nil otherwise) — and
// blocks until the round's fleet-wide decision is available. It returns
// the migration target (nil to stay). The last replica to arrive computes
// the decision.
func (c *Coordinator) Exchange(observed uint64, scores map[string]uint64) *plan.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	round := c.round
	c.sumObserved += observed
	if scores != nil {
		c.scored++
		for k, v := range scores {
			c.sums[k] += v
		}
	}
	c.arrived++
	if c.arrived >= c.n {
		c.finalizeLocked()
	} else {
		for round == c.round {
			c.cond.Wait()
		}
	}
	return c.decision
}

// Leave removes a finished replica from the barrier. If it was the last
// straggler of an open round, the round finalizes without it.
func (c *Coordinator) Leave() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
	if c.n > 0 && c.arrived >= c.n {
		c.finalizeLocked()
	}
}

// finalizeLocked computes the round's decision from the summed scores and
// opens the next round. A decision requires every arrived replica to have
// scored: the sums are then complete, so partially-gated rounds (a regime
// shift some replicas' slices saw one epoch before others') carry no
// weight and do not perturb the streak. Caller holds mu.
func (c *Coordinator) finalizeLocked() {
	c.decision = nil
	allScored := c.scored == c.arrived && c.scored > 0
	_, haveCurr := c.sums[c.committed]
	if allScored && c.sumObserved >= minEpochCost && haveCurr {
		if target, _ := c.streak.decide(c.cfg, c.committed, c.cands, c.sums); target != nil {
			c.decision = target
			c.committed = target.Canonical()
		}
	} else if allScored {
		// A complete round whose gates failed closes the streak; a partial
		// round carries no information either way.
		c.streak = streak{}
	}
	c.sumObserved = 0
	c.sums = make(map[string]uint64)
	c.arrived = 0
	c.scored = 0
	c.round++
	c.cond.Broadcast()
}
