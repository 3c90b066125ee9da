package adapt

import (
	"sync"

	"repro/internal/plan"
)

// Coordinator makes every epoch decision (DESIGN.md §7), for a fleet of any
// size. In sharded execution the shard runner broadcasts an epoch-barrier
// marker into every replica's channel when the global stream crosses an epoch
// boundary, each replica scores its local epoch slice at the barrier, and the
// coordinator sums the scores and applies one margin+patience decision that
// every replica then adopts — the replicas migrate in lockstep to the same
// shape, each performing its own snapshot+replay handoff at its next local
// arrival. A solo controller is the same thing with one replica: it makes its
// own coordinator and exchanges with itself at its own epoch boundaries.
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
	// out is the last finalized round: what Exchange hands every replica.
	out struct {
		target *plan.Node
		sums   map[string]uint64
		wins   int
	}
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

// commit records a forced migration (Config.ForceTo), which bypasses the
// policy: later rounds decide relative to the shape it installs.
func (c *Coordinator) commit(shape *plan.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.committed = shape.Canonical()
}

// Exchange reports one replica's observed epoch cost — with shadow scores
// only when the replica's steady-state gate opened (nil otherwise) — and
// blocks until the round is final. Every replica of the round gets the same
// answer: the migration target (nil to stay), the fleet's summed scores and
// the streak length the round reached. The last replica to arrive computes it.
func (c *Coordinator) Exchange(observed uint64, scores map[string]uint64) (target *plan.Node, sums map[string]uint64, wins int) {
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
	return c.out.target, c.out.sums, c.out.wins
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
	c.out.target, c.out.sums, c.out.wins = nil, c.sums, 0
	allScored := c.scored == c.arrived && c.scored > 0
	_, haveCurr := c.sums[c.committed]
	switch {
	case c.sumObserved < minEpochCost:
		// A near-idle fleet carries no shape signal and closes the streak —
		// the fleet's cost is the gate, as a solo run's own cost is.
		c.streak = streak{}
	case !allScored:
		// A partial round of a busy fleet carries no information either way.
	case haveCurr:
		c.out.target, c.out.wins = c.streak.decide(c.cfg, c.committed, c.cands, c.sums)
		if c.out.target != nil {
			c.committed = c.out.target.Canonical()
		}
	default:
		c.streak = streak{}
	}
	c.sumObserved = 0
	c.sums = make(map[string]uint64)
	c.arrived = 0
	c.scored = 0
	c.round++
	c.cond.Broadcast()
}
