package main

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// matching builds a tuple whose every column holds 1, so under Clique(3)
// every predicate holds and only the window decides.
func matching(id uint64, src stream.SourceID, ts stream.Time) *stream.Tuple {
	return &stream.Tuple{ID: id, Source: src, TS: ts, Vals: []stream.Value{1, 1}}
}

func TestOracleWindowBoundary(t *testing.T) {
	cat, conj := predicate.Clique(3)
	const w = stream.Minute
	cases := []struct {
		name string
		ts   [3]stream.Time
		want int
	}{
		{"equal timestamps join", [3]stream.Time{1000, 1000, 1000}, 1},
		{"one millisecond inside the window joins", [3]stream.Time{0, 30000, 59999}, 1},
		{"exactly w apart does not join: alive is [TS, TS+w)", [3]stream.Time{0, 30000, 60000}, 0},
		{"oldest pair exactly w apart, newest in between", [3]stream.Time{0, 60000, 60000}, 0},
	}
	for _, c := range cases {
		arrivals := []*stream.Tuple{matching(1, 0, c.ts[0]), matching(2, 1, c.ts[1]), matching(3, 2, c.ts[2])}
		got := oracle(cat, conj, w, arrivals)
		if len(got) != c.want {
			t.Errorf("%s: %d results, want %d", c.name, len(got), c.want)
		}
		if c.want == 1 && (got[0] != ids{1, 2, 3} || got[0].newest() != 3) {
			t.Errorf("%s: result %v newest %d, want {1 2 3 0} completed by arrival 3", c.name, got[0], got[0].newest())
		}
	}
}

func TestOraclePredicate(t *testing.T) {
	cat, conj := predicate.Clique(3)
	a, b, c := matching(1, 0, 0), matching(2, 1, 1), matching(3, 2, 2)
	c.Vals = []stream.Value{1, 2} // C's column for partner B no longer equals B's for C
	if got := oracle(cat, conj, stream.Minute, []*stream.Tuple{a, b, c}); len(got) != 0 {
		t.Errorf("a predicate that fails must drop the result, got %v", got)
	}
}

// keysOf renders results as sorted Composite.Key strings for comparison with
// the engine's sink.
func keysOf(t *testing.T, rs []ids) []string {
	t.Helper()
	out := make([]string, len(rs))
	for i, r := range rs {
		c := &stream.Composite{Comps: make([]*stream.Tuple, numSources)}
		for s, id := range r {
			c.Comps[s] = &stream.Tuple{ID: id}
			c.Sources = c.Sources.Add(stream.SourceID(s))
		}
		out[i] = c.Key()
		if back, ok := parseKey([]byte(out[i])); !ok || back != r {
			t.Fatalf("key %q does not parse back to %v", out[i], r)
		}
	}
	sort.Strings(out)
	return out
}

// The oracle shares no code with the engine; this is the one place the two
// are held against each other directly, in REF and in JIT mode.
func TestOracleMatchesEngine(t *testing.T) {
	cat, conj := predicate.Clique(numSources)
	next := source.Stream(cat, source.UniformConfig(numSources, 2.5, 8, stream.Hour, 7))
	var arrivals []*stream.Tuple
	for len(arrivals) < 900 {
		tu, _ := next()
		arrivals = append(arrivals, tu)
	}
	want := keysOf(t, oracle(cat, conj, window, arrivals))
	if len(want) < 100 {
		t.Fatalf("only %d results: the cross-check needs a workload that joins", len(want))
	}
	t.Logf("%d arrivals, %d finals", len(arrivals), len(want))
	for _, mode := range []core.Mode{core.REF(), core.JIT()} {
		b := plan.BuildTree(cat, conj, plan.Bushy(numSources), plan.Options{Window: window, Mode: mode, KeepResults: true, NoStateIndex: true})
		engine.NewWithOptions(b, engine.Options{Drain: true}).Run(arrivals)
		got := b.Sink.ResultKeys()
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("mode %v: engine delivered %d results, oracle %d", mode, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("mode %v: result %d is %s, oracle says %s", mode, i, got[i], want[i])
			}
		}
	}
}

func TestPrefixAndDiff(t *testing.T) {
	all := []ids{{1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 6, 5}, {7, 2, 6, 5}}
	if got := resultsOfPrefix(all, 5); len(got) != 2 {
		t.Errorf("prefix of 5 arrivals holds %d results, want 2", len(got))
	}
	delivered := []ids{{1, 2, 3, 5}, {1, 2, 3, 5}, {9, 9, 9, 9}}
	missing, spurious, duplicate := diff(all[:3], delivered)
	if missing != 2 || spurious != 1 || duplicate != 1 {
		t.Errorf("missing=%d spurious=%d duplicate=%d, want 2 1 1", missing, spurious, duplicate)
	}
	if all[0] != (ids{1, 2, 3, 4}) || all[2] != (ids{1, 2, 6, 5}) {
		t.Error("diff reordered the oracle's completion order")
	}
}
