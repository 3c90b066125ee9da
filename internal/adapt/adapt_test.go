package adapt_test

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
	"repro/internal/source"
	"repro/internal/stream"
)

// allModes is the four-mode ablation the migration-equivalence contract
// covers: the handoff must be lossless under every feedback configuration.
var allModes = []struct {
	name string
	mode core.Mode
}{
	{"jit", core.JIT()},
	{"ref", core.REF()},
	{"doe", core.DOE()},
	{"bloom", core.BloomJIT()},
}

// runDrained executes arrivals through a fresh engine with the end-of-stream
// drain (and optional re-optimizer) and returns the result.
func runDrained(b *plan.Built, arrivals []*stream.Tuple, reopt engine.Reoptimizer) engine.Result {
	eng := engine.NewWithOptions(b, engine.Options{Drain: true, Reopt: reopt})
	return eng.Run(arrivals)
}

// sortedKeys returns the sink's delivered result keys as a sorted multiset.
func sortedKeys(b *plan.Built) []string {
	keys := b.Sink.ResultKeys()
	sort.Strings(keys)
	return keys
}

func sameMultiset(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result multiset differs at %d: %s vs %s", label, i, got[i], want[i])
		}
	}
}

// phaseShift builds the adaptive-policy workload over the 4-source chain
// query (A.x=B.x ∧ B.x=C.x ∧ C.x=D.x): the first half is dense on A/B and
// sparse on C/D (the bushy plan's (C D) sub-join stays tiny while the
// left-deep pipeline would drag every A⋈B pair across the whole C state),
// the second half flips — C/D collapse onto four values while A/B move to a
// disjoint range, so the bushy shape manufactures floods of (C D) pairs
// that can never meet an (A B) partner, exactly the wasted work a left-deep
// shape avoids. Deterministic for a fixed seed.
func phaseShift(seed int64) []*stream.Tuple {
	const (
		horizon = 300 * stream.Second
		phase   = 150 * stream.Second
		gap     = 500 * stream.Millisecond // λ = 2 tuples/sec/source
	)
	rng := rand.New(rand.NewSource(seed))
	var traces [][]*stream.Tuple
	for src := 0; src < 4; src++ {
		var tr []*stream.Tuple
		for ts := stream.Time(int64(src)*29 + 1); ts < horizon; ts += gap {
			var v int64
			switch {
			case ts < phase && src < 2:
				v = rng.Int63n(4) + 1 // dense A/B
			case ts < phase:
				v = rng.Int63n(1000) + 1 // sparse C/D
			case src < 2:
				v = rng.Int63n(50) + 5 // A/B move off the C/D range
			default:
				v = rng.Int63n(4) + 1 // dense C/D
			}
			tr = append(tr, &stream.Tuple{
				Source: stream.SourceID(src), TS: ts, Vals: []stream.Value{stream.Value(v)},
			})
		}
		traces = append(traces, tr)
	}
	return source.Merge(traces...)
}

func chainPlan(shape *plan.Node, mode core.Mode) *plan.Built {
	cat, conj := predicate.Chain(4)
	return plan.BuildTree(cat, conj, shape, plan.Options{
		Window: 50 * stream.Second, Mode: mode, KeepResults: true, NoStateIndex: true,
	})
}

// TestAdaptiveEquivalence is the acceptance run: on the phase-shift
// workload, the epoch policy must fire a bushy→left-deep migration (logged),
// finish with strictly fewer cost units than the static bushy plan —
// including the scoring and replay overhead, which the counters charge to
// the adaptive run — and deliver exactly the static run's final multiset.
func TestAdaptiveEquivalence(t *testing.T) {
	for _, m := range allModes[:2] { // jit and ref: the paper's comparison pair
		t.Run(m.name, func(t *testing.T) {
			arrivals := phaseShift(1)

			static := chainPlan(plan.Bushy(4), m.mode)
			staticRes := runDrained(static, arrivals, nil)

			var log bytes.Buffer
			adaptive := chainPlan(plan.Bushy(4), m.mode)
			ctrl := adapt.New(adapt.Config{
				Epoch:    50 * stream.Second,
				Patience: 1, // the margin is the hysteresis; react within one epoch
				Log:      &log,
			})
			adaptiveRes := runDrained(adaptive, arrivals, ctrl)

			if adaptiveRes.Counters.Migrations < 1 {
				t.Fatalf("no migration fired; log:\n%s", log.String())
			}
			if !strings.Contains(log.String(), "migrate (0 1) (2 3)) -> ") &&
				!strings.Contains(log.String(), "migrate") {
				t.Fatalf("no migration decision logged:\n%s", log.String())
			}
			if m.name == "jit" {
				// Static bushy JIT is cheap enough since deferred results
				// skip the partners their MNS ruled out (6 114 003 → 5 162 719
				// CostUnits) that the what-if scoring of the shapes, 1 425 446
				// AdaptUnits, no longer fits under it: the migration must pay
				// for itself net of the scoring, and the adaptive total must
				// not rise above the 5 731 930 it cost before.
				const before = 5731930
				if net := adaptiveRes.CostUnits - adaptiveRes.Counters.AdaptUnits; net >= staticRes.CostUnits {
					t.Errorf("adaptive cost %d net of %d AdaptUnits not below static bushy %d",
						net, adaptiveRes.Counters.AdaptUnits, staticRes.CostUnits)
				}
				if adaptiveRes.CostUnits > before {
					t.Errorf("adaptive cost %d above its %d before deferred results skipped what their MNS ruled out",
						adaptiveRes.CostUnits, before)
				}
			} else if adaptiveRes.CostUnits >= staticRes.CostUnits {
				t.Errorf("adaptive cost %d not below static bushy %d (adapt overhead %d)",
					adaptiveRes.CostUnits, staticRes.CostUnits, adaptiveRes.Counters.AdaptUnits)
			}
			sameMultiset(t, m.name, sortedKeys(adaptive), sortedKeys(static))
			t.Logf("static=%d adaptive=%d (%.2fx) migrations=%d dups=%d adaptUnits=%d",
				staticRes.CostUnits, adaptiveRes.CostUnits,
				float64(staticRes.CostUnits)/float64(adaptiveRes.CostUnits),
				adaptiveRes.Counters.Migrations, adaptiveRes.Counters.MigrationDups,
				adaptiveRes.Counters.AdaptUnits)
		})
	}
}

// TestMigrationEquivalence forces a bushy→left-deep migration mid-window on
// the dense 4-way clique workload and checks the handoff is lossless and
// duplicate-free: the migrated run's final multiset must equal the pure
// left-deep run's (which, drained, also equals the pure bushy run's —
// finals are shape-independent under exact delivery). The full suite sweeps
// all four modes across three seeds on both the indexed and the scan-only
// state layout (the cut must rebuild hash indexes and replay scan cursors
// alike); -short, mirroring jitreport's preset, keeps one seed, the JIT/REF
// pair, and the default indexed layout.
func TestMigrationEquivalence(t *testing.T) {
	cat, conj := predicate.Clique(4)
	build := func(shape *plan.Node, mode core.Mode, noIdx bool) *plan.Built {
		return plan.BuildTree(cat, conj, shape, plan.Options{
			Window: 90 * stream.Second, Mode: mode, KeepResults: true, NoStateIndex: noIdx,
		})
	}
	seeds, modes := int64(3), allModes
	layouts := []struct {
		name  string
		noIdx bool
	}{{"indexed", false}, {"scan", true}}
	if testing.Short() {
		seeds, modes, layouts = 1, allModes[:2], layouts[:1]
	}
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := source.UniformConfig(4, 3.0, 30, 225*stream.Second+1, seed)
		arrivals := source.Generate(cat, cfg)
		for _, lay := range layouts {
			for _, m := range modes {
				pure := build(plan.LeftDeep(4), m.mode, lay.noIdx)
				pureRes := runDrained(pure, arrivals, nil)

				migrated := build(plan.Bushy(4), m.mode, lay.noIdx)
				ctrl := adapt.New(adapt.Config{
					ForceAt: 112 * stream.Second, // mid-window: the cut splits live state
					ForceTo: plan.LeftDeep(4),
				})
				migRes := runDrained(migrated, arrivals, ctrl)

				if migRes.Counters.Migrations != 1 {
					t.Fatalf("seed %d %s/%s: %d migrations, want 1", seed, m.name, lay.name, migRes.Counters.Migrations)
				}
				if pureRes.Results == 0 {
					t.Fatalf("seed %d %s/%s: workload delivered no finals — test has no teeth", seed, m.name, lay.name)
				}
				sameMultiset(t, m.name+"/"+lay.name, sortedKeys(migrated), sortedKeys(pure))
			}
		}
	}
}

// TestNoMigrationIsTransparent checks that an attached controller that
// never migrates leaves the run untouched: same deliveries, same order,
// same cost units as a plain drained run.
func TestNoMigrationIsTransparent(t *testing.T) {
	arrivals := phaseShift(2)
	plain := chainPlan(plan.Bushy(4), core.JIT())
	plainRes := runDrained(plain, arrivals, nil)

	tapped := chainPlan(plan.Bushy(4), core.JIT())
	ctrl := adapt.New(adapt.Config{}) // Epoch 0: policy disabled, no force
	tappedRes := runDrained(tapped, arrivals, ctrl)

	if tappedRes.Counters.Migrations != 0 {
		t.Fatalf("unexpected migration")
	}
	if plainRes.CostUnits != tappedRes.CostUnits || plainRes.Results != tappedRes.Results {
		t.Fatalf("idle controller changed the run: cost %d vs %d, results %d vs %d",
			plainRes.CostUnits, tappedRes.CostUnits, plainRes.Results, tappedRes.Results)
	}
	got, want := tapped.Sink.ResultKeys(), plain.Sink.ResultKeys()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order differs at %d", i)
		}
	}
}
