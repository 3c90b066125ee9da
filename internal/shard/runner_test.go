package shard_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/shard"
	"repro/internal/source"
	"repro/internal/stream"
)

// cliqueWorkload is a 4-way clique stream of the ROADMAP workload family
// (w=2min, h=3min). The tests run λ=3, dmax=30 — the same ~10 join
// partners per tuple per predicate as the dense λ=8, dmax=100 roadmap
// point, at a fraction of the arrivals, with ~60 finals to compare; the
// λ=8 point itself gave the scaling curve DESIGN.md §5 quotes (for today's
// performance harness see bench/README.md).
func cliqueWorkload(rate float64, dmax, seed int64) (*stream.Catalog, predicate.Conj, []*stream.Tuple) {
	cat, conj := predicate.Clique(4)
	arrivals := source.Generate(cat, source.UniformConfig(4, rate, dmax, 3*stream.Minute, seed))
	return cat, conj, arrivals
}

func buildDense(cat *stream.Catalog, conj predicate.Conj, mode core.Mode) *plan.Built {
	return plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{
		Window: 2 * stream.Minute, Mode: mode, KeepResults: true,
	})
}

// multiset folds result keys into a count map.
func multiset(keys []string) map[string]int {
	m := make(map[string]int, len(keys))
	for _, k := range keys {
		m[k]++
	}
	return m
}

func diffMultisets(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: result %s delivered %d times, want %d", label, k, got[k], n)
			return
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("%s: spurious result %s (delivered %d times)", label, k, n)
			return
		}
	}
}

// TestShardedEquivalence is the §5 acceptance contract on the dense
// workload: for shard counts 1, 2 and 4 and every execution mode, the
// sharded run's merged result multiset equals the drained single-engine
// run's, with one shard reproducing the single engine's sink order
// exactly, and the merged order bit-reproducible run-to-run for a fixed
// shard count.
func TestShardedEquivalence(t *testing.T) {
	cat, conj, arrivals := cliqueWorkload(3, 30, 1)
	type namedMode struct {
		name  string
		mode  core.Mode
		rerun bool // also verify run-to-run merge determinism
	}
	modes := []namedMode{
		{"REF", core.REF(), true},
		{"JIT", core.JIT(), true},
		{"DOE", core.DOE(), false},
		{"Bloom", core.BloomJIT(), false},
	}
	counts := []int{1, 2, 4}
	if testing.Short() {
		// The dispatcher and merge paths are mode-independent; the cheap
		// modes keep the race-detector CI job fast while the full sweep
		// covers all four modes.
		modes = []namedMode{{"REF", core.REF(), true}, {"Bloom", core.BloomJIT(), true}}
		counts = []int{1, 4}
	}
	for _, m := range modes {
		single := buildDense(cat, conj, m.mode)
		engine.NewWithOptions(single, engine.Options{Drain: true}).Run(arrivals)
		refKeys := single.Sink.ResultKeys()
		want := multiset(refKeys)
		if len(want) == 0 {
			t.Fatalf("%s: degenerate workload, single engine delivered nothing", m.name)
		}
		for _, n := range counts {
			runner := shard.New(buildDense(cat, conj, m.mode), shard.Options{
				Shards: n, Engine: engine.Options{Drain: true},
			})
			if runner.Shards() != n {
				t.Fatalf("%s shards=%d: effective count %d", m.name, n, runner.Shards())
			}
			res := runner.Run(arrivals)
			got := res.ResultKeys()
			if uint64(len(got)) != res.Merged.Results {
				t.Errorf("%s shards=%d: %d deliveries vs merged count %d",
					m.name, n, len(got), res.Merged.Results)
			}
			diffMultisets(t, m.name+" sharded", multiset(got), want)
			if n == 1 {
				for i := range got {
					if got[i] != refKeys[i] {
						t.Errorf("%s shards=1: merge order diverges from single engine at %d: %s vs %s",
							m.name, i, got[i], refKeys[i])
						break
					}
				}
			}
			// Determinism: an identical re-run must merge identically.
			if n == 1 || !m.rerun {
				continue
			}
			again := shard.New(buildDense(cat, conj, m.mode), shard.Options{
				Shards: n, Engine: engine.Options{Drain: true},
			}).Run(arrivals)
			rerun := again.ResultKeys()
			if len(rerun) != len(got) {
				t.Fatalf("%s shards=%d: rerun delivered %d results vs %d", m.name, n, len(rerun), len(got))
			}
			for i := range got {
				if rerun[i] != got[i] {
					t.Errorf("%s shards=%d: merge order not reproducible at %d: %s vs %s",
						m.name, n, i, rerun[i], got[i])
					break
				}
			}
		}
	}
}

// TestShardedChainFullCoverage runs the fully partitionable chain workload
// — every source routed, nothing broadcast — and asserts the same
// equivalence, so partial coverage (clique) and full coverage (chain) are
// both pinned.
func TestShardedChainFullCoverage(t *testing.T) {
	cat, conj := predicate.Chain(4)
	arrivals := source.Generate(cat, source.UniformConfig(4, 4, 200, 3*stream.Minute, 1))
	build := func() *plan.Built {
		return plan.BuildTree(cat, conj, plan.LeftDeep(4), plan.Options{
			Window: 2 * stream.Minute, Mode: core.JIT(), KeepResults: true,
		})
	}
	single := build()
	engine.NewWithOptions(single, engine.Options{Drain: true}).Run(arrivals)
	want := multiset(single.Sink.ResultKeys())
	if len(want) == 0 {
		t.Fatalf("degenerate chain workload")
	}
	for _, n := range []int{2, 4} {
		res := shard.New(build(), shard.Options{Shards: n, Engine: engine.Options{Drain: true}}).Run(arrivals)
		if res.Broadcasts != 0 {
			t.Errorf("shards=%d: %d broadcasts on a fully covered key", n, res.Broadcasts)
		}
		if res.Routed != uint64(len(arrivals)) {
			t.Errorf("shards=%d: routed %d of %d arrivals", n, res.Routed, len(arrivals))
		}
		diffMultisets(t, "chain", multiset(res.ResultKeys()), want)
	}
}

// TestShardedFallback asserts the cross-product fallback: no crossing
// predicates, no key — the run collapses to one replica and still matches
// the single engine.
func TestShardedFallback(t *testing.T) {
	cat := stream.NewCatalog()
	cat.MustAdd(stream.NewSchema("A", "x"))
	cat.MustAdd(stream.NewSchema("B", "x"))
	arrivals := source.Generate(cat, source.UniformConfig(2, 2, 10, time30s(), 1))
	build := func() *plan.Built {
		return plan.BuildTree(cat, nil, plan.Bushy(2), plan.Options{
			Window: 15 * stream.Second, Mode: core.REF(), KeepResults: true,
		})
	}
	single := build()
	engine.NewWithOptions(single, engine.Options{Drain: true}).Run(arrivals)
	runner := shard.New(build(), shard.Options{Shards: 4, Engine: engine.Options{Drain: true}})
	if runner.Shards() != 1 {
		t.Fatalf("cross product ran %d shards, want 1", runner.Shards())
	}
	res := runner.Run(arrivals)
	if !res.Fallback {
		t.Errorf("fallback not reported")
	}
	if got, want := res.Merged.Results, single.Sink.Count(); got != want {
		t.Errorf("fallback delivered %d results, single engine %d", got, want)
	}
}

func time30s() stream.Time { return 30 * stream.Second }

// TestShardedMetricsMerge asserts the counter contract: merged counters
// are the field-wise sum of the per-shard counters (metrics.Counters.Add),
// and the per-shard arrival counts sum to routed + shards×broadcast.
func TestShardedMetricsMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("full JIT counter merge runs in the non-short suite")
	}
	cat, conj, arrivals := cliqueWorkload(3, 30, 2)
	res := shard.New(buildDense(cat, conj, core.JIT()), shard.Options{
		Shards: 4, Engine: engine.Options{Drain: true},
	}).Run(arrivals)
	if res.Routed+res.Broadcasts != uint64(len(arrivals)) {
		t.Errorf("routed %d + broadcast %d != %d arrivals", res.Routed, res.Broadcasts, len(arrivals))
	}
	var wantArrivals uint64 = res.Routed + 4*res.Broadcasts
	if got := uint64(res.Merged.Arrivals); got != wantArrivals {
		t.Errorf("merged arrivals %d, want routed+4*broadcast = %d", got, wantArrivals)
	}
	var sum uint64
	for _, sr := range res.Shards {
		sum += sr.Counters.FinalResults
	}
	if sum != res.Merged.Counters.FinalResults {
		t.Errorf("merged finals %d != per-shard sum %d", res.Merged.Counters.FinalResults, sum)
	}
	if res.Merged.CostUnits != res.Merged.Counters.CostUnits() {
		t.Errorf("merged cost units inconsistent")
	}
}
