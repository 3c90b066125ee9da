package shard

import (
	"bytes"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stream"
)

// Options configures a sharded run.
type Options struct {
	// Shards is the requested replica count. Values below 2 — or a plan
	// with no partition key — collapse to a single replica.
	Shards int
	// Engine is applied to every replica. Drain should normally be on: each
	// shard sees only a key-slice of the stream, and the drain is what
	// guarantees the slice delivers its REF-equal finals (DESIGN.md §4), so
	// the union over shards equals the single-engine multiset (§5).
	Engine engine.Options
	// Adapt, when non-nil, runs the fleet under adaptive re-optimization
	// (internal/adapt, DESIGN.md §7) with lockstep migrations: the
	// dispatcher broadcasts an epoch-barrier marker into every replica
	// channel when the global stream crosses an epoch boundary, the
	// replicas exchange their local shadow scores through one coordinator
	// at the barrier, and all adopt the same fleet-wide shape decision.
	// Drain is forced on (the migration handoff requires exact delivery).
	Adapt *adapt.Config
	// TraceFor, when non-nil, supplies each replica's observability tracer
	// (nil returns leave that replica untraced). One tracer per replica —
	// tracers are single-goroutine like the engines that drive them; the ops
	// endpoint aggregates their snapshots with per-shard labels (DESIGN.md
	// §9), and the merged Result aggregates per-operator ledgers by name.
	TraceFor func(shard int) *obs.Tracer
}

// Result is the outcome of a sharded run.
type Result struct {
	// Merged aggregates the per-shard results: counters via
	// metrics.Counters.Add, operators by name (metrics.MergeOps),
	// result/arrival counts summed (a broadcast arrival is ingested once per
	// shard and counted as such), PeakMemKB the sum of per-shard peaks (the
	// fleet's total footprint) and PeakMem the sum of their splits, WallTime the whole run's wall clock —
	// dispatch start to last shard drained.
	Merged engine.Result
	// Shards holds each replica's own result, indexed by shard.
	Shards []engine.Result
	// Key is the partition key; Fallback reports that no plan-wide key
	// existed and the run collapsed to one replica.
	Key      Key
	Fallback bool
	// Routed counts arrivals sent to exactly one shard; Broadcasts counts
	// arrivals replicated to every shard. Routed+Broadcasts is the global
	// arrival count.
	Routed     uint64
	Broadcasts uint64
	// Deliveries is the deterministic merge of the per-shard sink streams
	// (nil unless the plan was built with Options.KeepResults).
	Deliveries []*stream.Composite
}

// ResultKeys returns the canonical keys of the merged deliveries in merge
// order, for multiset and determinism comparison against a single engine.
func (r *Result) ResultKeys() []string {
	keys := make([]string, len(r.Deliveries))
	for i, c := range r.Deliveries {
		keys[i] = c.Key()
	}
	return keys
}

// Imbalance measures the partition skew of a keyed run: the hottest
// replica's routed-arrival count over the fair per-replica share. A
// perfectly balanced fleet scores 1; a Zipf-skewed key pushes the score
// toward the replica owning the hot value (the scenario harness asserts
// this reaches routing, and a future autoscaler would treat it as the
// re-key trigger). Single-replica and fallback runs score 1 — there is no
// routing decision to be skewed.
func (r *Result) Imbalance() float64 {
	if len(r.Shards) < 2 || r.Routed == 0 {
		return 1
	}
	var hot uint64
	for _, sh := range r.Shards {
		if routed := uint64(sh.Arrivals) - r.Broadcasts; routed > hot {
			hot = routed
		}
	}
	return float64(hot) * float64(len(r.Shards)) / float64(r.Routed)
}

// dispatchDepth is the per-shard dispatch channel depth: deep enough that the
// dispatcher rarely blocks on one busy replica while the others sit idle,
// small enough that in-flight tuples stay a negligible share of memory.
const dispatchDepth = 256

// Runner executes one plan across key-partitioned engine replicas.
type Runner struct {
	base   *plan.Built
	opt    Options
	key    Key
	keyed  bool
	shards int
}

// New creates a runner for the plan. The partition key is derived from the
// plan's predicates and shape (DeriveKey); when none exists, or fewer than
// two shards are requested, the runner degenerates to one replica.
func New(b *plan.Built, opt Options) *Runner {
	r := &Runner{base: b, opt: opt, shards: opt.Shards}
	if r.shards < 1 {
		r.shards = 1
	}
	r.key, r.keyed = DeriveKey(b.Preds(), b.Shape())
	if !r.keyed {
		r.shards = 1
	}
	return r
}

// Shards returns the effective replica count after fallback.
func (r *Runner) Shards() int { return r.shards }

// Key returns the derived partition key; ok is false on fallback.
func (r *Runner) Key() (Key, bool) { return r.key, r.keyed }

// Run adapts a materialized arrival slice to RunStream.
func (r *Runner) Run(arrivals []*stream.Tuple) Result {
	return r.RunStream(engine.SliceSource(arrivals))
}

// RunStream runs the stream through the fleet and merges the results. A
// fleet of one runs inline: the calling goroutine drives the replica's
// engine.RunStream straight over next — no channel, no goroutine — and that
// is what a single-engine run is (exp.Params.Run). With more replicas the
// calling goroutine dispatches: it pulls tuples from next in order and
// sends each to its key shard (or to every shard for broadcast sources),
// while one goroutine per replica drives engine.RunStream over its
// channel; closing the channels starts each shard's end-of-stream drain.
// Tuples are shared by pointer across shards — they are immutable once
// dispatched — while every replica's operators, counters and sink are its
// own (plan.Built.Replicate), so the engines never synchronize.
//
// Everything about the run is deterministic for a fixed shard count: the
// per-shard input sequence is a pure function of the stream and the key,
// each replica is the deterministic single-threaded engine, and the merge
// order is defined below — goroutine scheduling cannot affect any output.
//
// Under Options.Adapt the dispatcher additionally broadcasts an epoch-
// barrier marker (a tuple of source -1 carrying the boundary-crossing
// arrival's timestamp) into EVERY replica channel the moment the global
// stream first crosses an epoch boundary — before any post-boundary tuple —
// so each replica, draining its channel in order, reaches barrier k after
// exactly its slice of epoch k. At the barrier the replica blocks in the
// adapt.Coordinator until every live replica has reported; the fleet-wide
// decision is a pure function of the summed scores, and each replica
// applies it at its next local arrival via its own snapshot+replay handoff
// (DESIGN.md §7). A fleet of one needs no marker: its solo controller closes
// epochs on its own clock. Every controller logs into its replica's buffer,
// written out in shard order after the run. Liveness: a replica waiting at a
// barrier has an empty channel prefix only behind other replicas'
// unconsumed input, which those replicas drain without needing the
// dispatcher; the dispatcher may block on a full channel, but never while a
// marker it already enqueued is needed to release anyone.
func (r *Runner) RunStream(next func() (*stream.Tuple, bool)) Result {
	n := r.shards
	res := Result{Key: r.key, Fallback: !r.keyed}
	var coord *adapt.Coordinator
	if r.opt.Adapt != nil && n > 1 {
		coord = adapt.NewCoordinator(n, r.base.Shape(), r.base.Catalog.NumSources(), *r.opt.Adapt)
	}
	replicas := make([]*plan.Built, n)
	engines := make([]*engine.Engine, n)
	ctrls := make([]*adapt.Controller, n)
	logs := make([]bytes.Buffer, n)
	for i := range replicas {
		replicas[i] = r.base.Replicate()
		if r.opt.TraceFor != nil {
			replicas[i].SetTrace(r.opt.TraceFor(i))
		}
		o := r.opt.Engine
		if r.opt.Adapt != nil {
			cfg := *r.opt.Adapt
			if cfg.Log != nil {
				cfg.Log = &logs[i]
			}
			if coord != nil {
				ctrls[i] = adapt.NewCoordinated(cfg, coord)
			} else {
				ctrls[i] = adapt.New(cfg)
			}
			o.Drain = true // the migration handoff requires exact delivery
			o.Reopt = ctrls[i]
		}
		engines[i] = engine.NewWithOptions(replicas[i], o)
	}

	shardRes := make([]engine.Result, n)
	start := time.Now() //jitlint:allow wallclock merged Result.Wall is operator-facing elapsed time; counters and results never depend on it
	if n == 1 {
		shardRes[0] = engines[0].RunStream(func() (*stream.Tuple, bool) {
			t, ok := next()
			if ok {
				res.Routed++
			}
			return t, ok
		})
	} else {
		chans := make([]chan *stream.Tuple, n)
		var wg sync.WaitGroup
		for i := range chans {
			chans[i] = make(chan *stream.Tuple, dispatchDepth)
			wg.Add(1)
			go func() {
				defer wg.Done()
				shardRes[i] = engines[i].RunStream(func() (*stream.Tuple, bool) {
					for t := range chans[i] {
						if t.Source >= 0 {
							return t, true
						}
						ctrls[i].AtBarrier(t.TS)
					}
					if coord != nil {
						ctrls[i].Leave()
					}
					return nil, false
				})
			}()
		}
		r.dispatch(&res, next, chans)
		wg.Wait()
	}
	r.merge(&res, replicas, shardRes, time.Since(start)) //jitlint:allow wallclock merged Result.Wall is operator-facing elapsed time; counters and results never depend on it
	if r.opt.Adapt != nil && r.opt.Adapt.Log != nil {
		for i := range logs {
			r.opt.Adapt.Log.Write(logs[i].Bytes()) //nolint:errcheck // best-effort decision log
		}
	}
	return res
}

// dispatch routes the stream into the replicas' channels — each tuple to its
// key shard or to every shard, an epoch-barrier marker to every shard ahead of
// the first tuple past each boundary — and closes them at end of stream.
func (r *Runner) dispatch(res *Result, next func() (*stream.Tuple, bool), chans []chan *stream.Tuple) {
	var barrier stream.EpochClock
	if r.opt.Adapt != nil {
		barrier.Period = r.opt.Adapt.Epoch
	}
	for {
		t, ok := next()
		if !ok {
			break
		}
		if barrier.Period > 0 && barrier.Due(t.TS) {
			marker := &stream.Tuple{Source: -1, TS: t.TS}
			for _, ch := range chans {
				ch <- marker
			}
			barrier.Advance(t.TS)
		}
		switch s := r.key.Route(t, len(chans)); s {
		case Broadcast:
			res.Broadcasts++
			for _, ch := range chans {
				ch <- t
			}
		default:
			res.Routed++
			chans[s] <- t
		}
	}
	for _, ch := range chans {
		close(ch)
	}
}

// merge assembles the per-shard results into the deterministic fleet
// result (the merge-order contract of DESIGN.md §5).
func (r *Runner) merge(res *Result, replicas []*plan.Built, shardRes []engine.Result, wall time.Duration) {
	res.Shards = shardRes
	merged := engine.Result{WallTime: wall}
	var ctr metrics.Counters
	logs := make([][]*stream.Composite, len(shardRes))
	for i := range shardRes {
		sr := &shardRes[i]
		merged.Results += sr.Results
		merged.Arrivals += sr.Arrivals
		merged.PeakMemKB += sr.PeakMemKB
		merged.PeakMem.Add(sr.PeakMem)
		merged.PeakOps = metrics.MergeOpMem(merged.PeakOps, sr.PeakOps)
		merged.OrderViolations += sr.OrderViolations
		ctr.Add(&sr.Counters)
		logs[i] = replicas[i].Sink.Results()
		merged.Ops = metrics.MergeOps(merged.Ops, sr.Ops)
	}
	merged.Counters = ctr
	merged.CostUnits = ctr.CostUnits()
	res.Merged = merged
	res.Deliveries = mergeDeliveries(logs)
}

// mergeDeliveries k-way merges the per-shard sink streams into one
// deterministic order — the merge-order contract of DESIGN.md §5:
// repeatedly deliver, among the shards' next undelivered results, the one
// with the smallest (timestamp, shard id). Only heads are eligible, so
// each shard's own delivery order (its seq order, including documented
// late-recovery timestamp inversions) is preserved verbatim, and with one
// shard the merge reproduces the single engine's sink order exactly.
func mergeDeliveries(logs [][]*stream.Composite) []*stream.Composite {
	total := 0
	for _, l := range logs {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]*stream.Composite, 0, total)
	pos := make([]int, len(logs))
	for len(out) < total {
		best := -1
		for i, l := range logs {
			if pos[i] >= len(l) {
				continue
			}
			// Strict < keeps the lowest shard id on timestamp ties.
			if best < 0 || l[pos[i]].TS < logs[best][pos[best]].TS {
				best = i
			}
		}
		out = append(out, logs[best][pos[best]])
		pos[best]++
	}
	return out
}
