package shard_test

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/shard"
	"repro/internal/source"
	"repro/internal/stream"
)

// shiftWorkload is the sharded twin of the adapt package's phase-shift
// workload: a 4-source chain query whose first half favors the bushy shape
// and whose second half floods the bushy (C D) sub-join with partnerless
// pairs. The chain's single shared column is also the plan-wide partition
// key, so the stream routes across replicas with no broadcasts.
func shiftWorkload(seed int64) []*stream.Tuple {
	const (
		horizon = 300 * stream.Second
		phase   = 150 * stream.Second
		gap     = 500 * stream.Millisecond
	)
	rng := rand.New(rand.NewSource(seed))
	var traces [][]*stream.Tuple
	for src := 0; src < 4; src++ {
		var tr []*stream.Tuple
		for ts := stream.Time(int64(src)*29 + 1); ts < horizon; ts += gap {
			var v int64
			switch {
			case ts < phase && src < 2:
				v = rng.Int63n(4) + 1
			case ts < phase:
				v = rng.Int63n(1000) + 1
			case src < 2:
				v = rng.Int63n(50) + 5
			default:
				v = rng.Int63n(4) + 1
			}
			tr = append(tr, &stream.Tuple{
				Source: stream.SourceID(src), TS: ts, Vals: []stream.Value{stream.Value(v)},
			})
		}
		traces = append(traces, tr)
	}
	return source.Merge(traces...)
}

// TestShardedAdaptiveEquivalence runs the fleet under lockstep
// re-optimization: the merged delivery multiset must equal the static
// single-engine run's, the replicas must actually migrate, and the whole
// thing must be bit-reproducible across repeated runs.
func TestShardedAdaptiveEquivalence(t *testing.T) {
	cat, conj := predicate.Chain(4)
	build := func(shape *plan.Node) *plan.Built {
		return plan.BuildTree(cat, conj, shape, plan.Options{
			Window: 50 * stream.Second, Mode: core.JIT(), KeepResults: true, NoStateIndex: true,
		})
	}
	arrivals := shiftWorkload(1)

	static := build(plan.Bushy(4))
	engine.NewWithOptions(static, engine.Options{Drain: true}).Run(arrivals)
	want := sortedCopy(static.Sink.ResultKeys())

	runOnce := func() ([]string, shard.Result) {
		runner := shard.New(build(plan.Bushy(4)), shard.Options{
			Shards: 2,
			Adapt: &adapt.Config{
				Epoch:    50 * stream.Second,
				Patience: 1,
			},
		})
		if runner.Shards() != 2 {
			t.Fatalf("chain plan should shard, got %d replicas", runner.Shards())
		}
		res := runner.Run(arrivals)
		return res.ResultKeys(), res
	}

	got, res := runOnce()
	if res.Merged.Counters.Migrations == 0 {
		t.Fatalf("no replica migrated")
	}
	t.Logf("migrations=%d (lockstep fleet of 2) dups=%d", res.Merged.Counters.Migrations,
		res.Merged.Counters.MigrationDups)
	gotSorted := sortedCopy(got)
	if len(gotSorted) != len(want) {
		t.Fatalf("merged %d results, static %d", len(gotSorted), len(want))
	}
	for i := range want {
		if gotSorted[i] != want[i] {
			t.Fatalf("result multiset differs at %d", i)
		}
	}

	again, _ := runOnce()
	if len(again) != len(got) {
		t.Fatalf("non-deterministic result count: %d vs %d", len(again), len(got))
	}
	for i := range got {
		if again[i] != got[i] {
			t.Fatalf("merge order not reproducible at %d", i)
		}
	}
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// TestShardedAdaptLogIsDeterministic pins the fleet's decision log: every
// replica logs into its own buffer and the runner writes the buffers out in
// shard order after the run, so the same cell prints the same bytes however
// the replica goroutines are scheduled — `jitrun -adapt -shards N` can sit in
// the transcript golden.
func TestShardedAdaptLogIsDeterministic(t *testing.T) {
	cat, conj := predicate.Chain(4)
	arrivals := shiftWorkload(1)
	runOnce := func() string {
		var log bytes.Buffer
		b := plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{
			Window: 50 * stream.Second, Mode: core.REF(), NoStateIndex: true,
		})
		res := shard.New(b, shard.Options{
			Shards: 2,
			Adapt:  &adapt.Config{Epoch: 50 * stream.Second, Patience: 1, Log: &log},
		}).Run(arrivals)
		if res.Merged.Counters.Migrations != 2 {
			t.Fatalf("%d migrations, want one per replica; log:\n%s", res.Merged.Counters.Migrations, log.String())
		}
		return log.String()
	}
	first := runOnce()
	if n := strings.Count(first, " migrate "); n != 2 {
		t.Fatalf("%d migrate lines, want one per replica:\n%s", n, first)
	}
	for i := 1; i < 8; i++ {
		if again := runOnce(); again != first {
			t.Fatalf("run %d logged differently:\n--- first\n%s--- run %d\n%s", i, first, i, again)
		}
	}
}
