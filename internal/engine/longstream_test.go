package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// bruteJoin is the oracle of TestLongStreamExactEquivalence: the sliding-
// window join straight from its definition, sharing no code with the engine.
// A result is one tuple per source such that every predicate holds and all
// timestamps lie within one window (max − min < w); it is named as the sink
// names it, "source:id" joined by "|". The nested loops extend a partial
// result source by source and prune on the window and on the predicates
// already decidable.
func bruteJoin(n int, conj predicate.Conj, arrivals []*stream.Tuple, w stream.Time) []string {
	bySource := make([][]*stream.Tuple, n)
	for _, t := range arrivals {
		bySource[t.Source] = append(bySource[t.Source], t)
	}
	var out []string
	pick := make([]*stream.Tuple, n)
	var extend func(src int, lo, hi stream.Time)
	extend = func(src int, lo, hi stream.Time) {
		if src == n {
			parts := make([]string, n)
			for i, t := range pick {
				parts[i] = fmt.Sprintf("%d:%d", i, t.ID)
			}
			out = append(out, strings.Join(parts, "|"))
			return
		}
	candidates:
		for _, t := range bySource[src] {
			nlo, nhi := min(lo, t.TS), max(hi, t.TS)
			if src > 0 && nhi-nlo >= w {
				continue
			}
			pick[src] = t
			for _, p := range conj {
				// A predicate is decided at the depth of its later source.
				if l, r := int(p.Left), int(p.Right); max(l, r) == src && pick[l].Vals[p.LCol] != pick[r].Vals[p.RCol] {
					continue candidates
				}
			}
			if src == 0 {
				nlo, nhi = t.TS, t.TS
			}
			extend(src+1, nlo, nhi)
		}
	}
	extend(0, 0, 0)
	sort.Strings(out)
	return out
}

// TestLongStreamExactEquivalence is the equivalence gate that actually
// reaches the graveyard's retention rule (DESIGN.md §4): the scenario matrix
// and TestEndOfStreamDrain stop after 1.5 windows, before any retired entry
// can be let go. Here every feedback mode runs exact and drained over 8.5
// windows, bushy and left-deep (where mark-suppressed pairs surface more
// than two windows after the partners they need retired), on uniform and on
// Zipf-skewed values (where graveyard joins number in the tens of thousands),
// and must deliver exactly REF's multiset — which in turn must be the brute-
// force window join's. The full suite runs 50 seeds per cell, -short 10.
//
// knownLossy lists the streams on which JIT on the bushy plan drops finals at
// every commit since the exact-delivery mode landed — further instances of
// the defect bench/README.md records as finding 2, older than and untouched
// by the retention rule (the parent commit, with its unbounded graveyard,
// loses the same results). They are pinned by count, so the test says so
// when the defect is fixed: delete the entry then.
func TestLongStreamExactEquivalence(t *testing.T) {
	knownLossy := map[string]int{ // "values/shape/mode/seed" → finals lost
		"uniform/bushy/JIT/21": 2,
		"zipf1.5/bushy/JIT/26": 12,
		"zipf1.5/bushy/JIT/38": 1,
		// The same stream loses the same final (0:54|1:18|2:6|3:22) under Bloom,
		// which ran as REF until its detection gate was fixed. BloomJIT has
		// TypeII off, so the mark protocol is not what drops it: the lost-final
		// defect sits in Type I park / last gasp (ROADMAP item 1).
		"zipf1.5/bushy/Bloom/38": 1,
	}
	const (
		n       = 4
		window  = 15 * stream.Second
		horizon = 17 * window / 2
	)
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	shapes := []struct {
		name string
		node *plan.Node
	}{{"bushy", plan.Bushy(n)}, {"leftdeep", plan.LeftDeep(n)}}
	values := []struct {
		name string
		dmax int64
		zipf float64
	}{{"uniform", 4, 0}, {"zipf1.5", 8, 1.5}}
	modes := []struct {
		name string
		mode core.Mode
	}{{"JIT", core.JIT()}, {"DOE", core.DOE()}, {"Bloom", core.BloomJIT()}}

	cat, conj := predicate.Clique(n)
	for _, v := range values {
		for _, sh := range shapes {
			t.Run(v.name+"/"+sh.name, func(t *testing.T) {
				finals := 0
				for seed := int64(1); seed <= int64(seeds); seed++ {
					cfg := source.UniformConfig(n, 1, v.dmax, horizon, seed)
					for i := range cfg.Specs {
						cfg.Specs[i].Zipf = v.zipf
					}
					arrivals := source.Generate(cat, cfg)
					run := func(m core.Mode) []string {
						b := plan.BuildTree(cat, conj, sh.node, plan.Options{Window: window, Mode: m, KeepResults: true})
						NewWithOptions(b, Options{Drain: true}).Run(arrivals)
						keys := b.Sink.ResultKeys()
						sort.Strings(keys)
						return keys
					}
					want := bruteJoin(n, conj, arrivals, window)
					finals += len(want)
					if got := run(core.REF()); !slices.Equal(got, want) {
						t.Fatalf("seed %d: REF delivered %d finals, the brute-force join %d", seed, len(got), len(want))
					}
					for _, m := range modes {
						got := run(m.mode)
						if lost := knownLossy[fmt.Sprintf("%s/%s/%s/%d", v.name, sh.name, m.name, seed)]; lost > 0 {
							if len(want)-len(got) != lost || !subMultiset(got, want) {
								t.Errorf("seed %d %s: known to lose %d of %d finals, delivered %d", seed, m.name, lost, len(want), len(got))
							}
							continue
						}
						if !slices.Equal(got, want) {
							t.Errorf("seed %d %s: %d finals, want %d%s", seed, m.name, len(got), len(want), firstDiff(got, want))
						}
					}
				}
				if finals < 100*seeds {
					t.Fatalf("degenerate workload: %d finals over %d seeds", finals, seeds)
				}
			})
		}
	}
}

// subMultiset reports whether sorted multiset a is contained in sorted b.
func subMultiset(a, b []string) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// firstDiff names the first result two sorted multisets disagree on.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got) || (i < len(want) && want[i] < got[i]):
			return ": missing " + want[i]
		case i >= len(want) || got[i] < want[i]:
			return ": extra " + got[i]
		}
	}
	return ""
}

// TestRetentionForgetsNothingReachable pins the reproducer that refuted a
// fixed two-window graveyard horizon (DESIGN.md §4): on the left-deep plan a
// pair suppressed under a mark at the bottom join surfaces more than two
// windows after the partners it needs one level up retired. The counters
// below were recorded at PR 14, whose graveyard forgot nothing; a horizon of
// 2·w builds 2, 8 and 4 composites fewer on these three streams (and moves
// CostUnits) while still delivering every final — which is why no
// result-level equivalence test sees it.
func TestRetentionForgetsNothingReachable(t *testing.T) {
	const window = 15 * stream.Second
	cat, conj := predicate.Clique(4)
	for _, want := range []struct {
		seed               int64
		composites, finals uint64
		cost               uint64
	}{
		{1, 9907, 154, 5934542},
		{2, 9575, 164, 5789337},
		{3, 9273, 227, 5975867},
	} {
		arrivals := source.Generate(cat, source.UniformConfig(4, 4, 12, 10*window, want.seed))
		b := plan.BuildTree(cat, conj, plan.LeftDeep(4), plan.Options{Window: window, Mode: core.JIT(), NoStateIndex: true})
		r := NewWithOptions(b, Options{Drain: true}).Run(arrivals)
		if r.Counters.Results != want.composites || r.Results != want.finals || r.CostUnits != want.cost {
			t.Errorf("seed %d: built %d composites, %d finals at %d CostUnits; PR 14 built %d, %d at %d",
				want.seed, r.Counters.Results, r.Results, r.CostUnits, want.composites, want.finals, want.cost)
		}
	}
}
