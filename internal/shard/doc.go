// Package shard scales one continuous query across key-partitioned engine
// replicas (DESIGN.md §5). Since every crossing predicate is an equi-join,
// two tuples that disagree on a plan-wide compatible partitioning key can
// never meet in a result, so hash-partitioning the sources on that key
// gives shard-local completeness: N independent plan replicas, each driven
// by its own engine goroutine over a key-slice of the stream, together
// deliver exactly the single-engine result multiset. Sources outside the
// key class broadcast to every shard, and a deterministic k-way merge
// reassembles the per-shard sink streams into one reproducible output.
//
// Layout: partition.go derives the key (DeriveKey over the predicate
// closure's equivalence classes) and routes tuples (Route, FNV-1a on the
// key value, Broadcast for uncovered sources); runner.go owns the
// goroutine topology — one dispatcher feeding per-shard channels, one
// engine per replica, and the (timestamp, shard) merge that makes a
// sharded run bit-reproducible for a fixed shard count. A fleet of one has
// no topology: the runner drives its engine inline on the calling
// goroutine, and that is what every single-engine run of internal/exp is.
//
// Nothing is shared between replicas: no operator, state, or feedback
// structure crosses a shard boundary, which is why JIT suspension stays
// correct per shard (feedback can only ever suppress pairs the local
// shard could form). The completeness guarantee needs the end-of-stream
// drain (engine.Options.Drain, DESIGN.md §4) on every replica — per-shard
// exact delivery is what makes the union over shards equal the
// single-engine multiset. The runner applies Options.Engine verbatim
// (adding the drain only under Options.Adapt), so callers must set Drain
// themselves; exp.Params.Drains is the rule every exp run follows.
package shard
