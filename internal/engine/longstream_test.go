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
// force window join's. The full suite runs 50 seeds per cell, -short 10; no
// stream is excepted.
func TestLongStreamExactEquivalence(t *testing.T) {
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
						if got := run(m.mode); !slices.Equal(got, want) {
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

// drainedClique runs the 4-source clique drained under one mode, shape and
// index setting, w = 15 s.
func drainedClique(arrivals []*stream.Tuple, shape *plan.Node, mode core.Mode, indexed bool) Result {
	cat, conj := predicate.Clique(4)
	b := plan.BuildTree(cat, conj, shape, plan.Options{Window: 15 * stream.Second, Mode: mode, NoStateIndex: !indexed})
	return NewWithOptions(b, Options{Drain: true}).Run(arrivals)
}

// sameCompositesAsREF requires a drained run to have built what REF built on
// the same stream and shape: equal finals, equal plan-wide Results and equal
// Results at every operator. REF's operators join everything inside the
// window and nothing else, so an exact run that builds fewer composites
// somewhere has lost a pair REF formed live — even when, as on these streams
// before the rest rule of DESIGN.md §4, no lost pair happened to extend to a
// final.
func sameCompositesAsREF(t *testing.T, label string, got, ref Result) {
	t.Helper()
	if got.Results != ref.Results || got.Counters.Results != ref.Counters.Results {
		t.Errorf("%s: %d finals of %d composites, REF %d of %d", label, got.Results, got.Counters.Results, ref.Results, ref.Counters.Results)
	}
	for i, op := range got.Ops {
		if want := ref.Ops[i].Counters.Results; op.Counters.Results != want {
			t.Errorf("%s: %s built %d composites, REF's built %d", label, op.Name, op.Counters.Results, want)
		}
	}
}

// TestDrainedOperatorsBuildREFsComposites is the equivalence gate below the
// sink: on a drained run every operator of every feedback mode builds exactly
// the composites REF's operator builds (sameCompositesAsREF), bushy and
// left-deep, scanned and indexed, over ten windows; 12 seeds, -short 3.
func TestDrainedOperatorsBuildREFsComposites(t *testing.T) {
	cat, _ := predicate.Clique(4)
	seeds := int64(12)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= seeds; seed++ {
		arrivals := source.Generate(cat, source.UniformConfig(4, 4, 12, 150*stream.Second, seed))
		for _, shape := range []*plan.Node{plan.Bushy(4), plan.LeftDeep(4)} {
			for _, indexed := range []bool{false, true} {
				ref := drainedClique(arrivals, shape, core.REF(), indexed)
				for _, name := range []string{"jit", "doe", "bloom"} {
					mode, _ := core.ParseMode(name)
					label := fmt.Sprintf("seed %d %s %s indexed=%t", seed, shape.Canonical(), name, indexed)
					sameCompositesAsREF(t, label, drainedClique(arrivals, shape, mode, indexed), ref)
				}
			}
		}
	}
}

// TestIndexedAndScanDetectAlike holds -indexed JIT to scan JIT's decisions.
// Identify_MNS finds its partners by value in the opposite state and admits
// them by pairValid whichever way the probe before it walked, so on one
// stream both detect the same Ω, send the same feedback, suspend and resume
// the same tuples at the same sweeps, and build the same composites at every
// operator. Until PR 24 an indexed detection re-scanned the state without the
// pairValid gate of the probe, observed partners REF never paired, and
// drifted: mns 23320 / fb 24057 / susp 704 against the scan's 23311 / 24052 /
// 754 on the bushy five-minute clique_jit stream used here. CatchUpJoins and
// SuppressedPairs are left out: a keyed probe skips the non-matching partners
// a scan visits and counts.
func TestIndexedAndScanDetectAlike(t *testing.T) {
	cat, conj := predicate.Clique(4)
	arrivals := source.Generate(cat, source.UniformConfig(4, 2.5, 16, 5*stream.Minute, 1))
	for _, shape := range []*plan.Node{plan.Bushy(4), plan.LeftDeep(4)} {
		run := func(indexed bool) Result {
			b := plan.BuildTree(cat, conj, shape, plan.Options{Window: stream.Minute, Mode: core.JIT(), NoStateIndex: !indexed})
			return NewWithOptions(b, Options{Drain: true}).Run(arrivals)
		}
		scan, indexed := run(false), run(true)
		if scan.Counters.MNSDetected == 0 || scan.Counters.Suspended == 0 {
			t.Fatalf("%s: degenerate run, scan JIT detected %d and suspended %d", shape.Canonical(), scan.Counters.MNSDetected, scan.Counters.Suspended)
		}
		for _, c := range []struct {
			name      string
			scan, idx uint64
		}{
			{"mns", scan.Counters.MNSDetected, indexed.Counters.MNSDetected},
			{"fb", scan.Counters.Feedbacks, indexed.Counters.Feedbacks},
			{"susp", scan.Counters.Suspended, indexed.Counters.Suspended},
			{"res", scan.Counters.Resumed, indexed.Counters.Resumed},
			{"sweeps", scan.Counters.Sweeps, indexed.Counters.Sweeps},
		} {
			if c.scan != c.idx {
				t.Errorf("%s: %s=%d scanned, %d indexed", shape.Canonical(), c.name, c.scan, c.idx)
			}
		}
		for i, op := range scan.Ops {
			if got := indexed.Ops[i].Counters.Results; got != op.Counters.Results {
				t.Errorf("%s: %s built %d composites scanned, %d indexed", shape.Canonical(), op.Name, op.Counters.Results, got)
			}
		}
	}
}

// TestRetentionForgetsNothingReachable pins the reproducer that refuted a
// fixed two-window graveyard horizon (DESIGN.md §4): on the left-deep plan a
// pair suppressed under a mark at the bottom join surfaces more than two
// windows after the partners it needs one level up retired. A horizon of 2·w
// builds 2, 8 and 4 composites fewer than REF on these three streams while
// still delivering every final — which is why no result-level equivalence
// test sees it, and why the pin is REF's composite count at every operator.
func TestRetentionForgetsNothingReachable(t *testing.T) {
	cat, _ := predicate.Clique(4)
	for seed := int64(1); seed <= 3; seed++ {
		arrivals := source.Generate(cat, source.UniformConfig(4, 4, 12, 150*stream.Second, seed))
		jit := drainedClique(arrivals, plan.LeftDeep(4), core.JIT(), false)
		sameCompositesAsREF(t, fmt.Sprintf("seed %d", seed), jit, drainedClique(arrivals, plan.LeftDeep(4), core.REF(), false))
	}
}
