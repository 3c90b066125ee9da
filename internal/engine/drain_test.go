package engine

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// roadmapWorkload is the dense end-of-stream workload family from the
// ROADMAP open item: N=4, λ=8, dmax=100, w=2min, h=3min. The horizon sits
// close enough to the window that suspended results routinely have
// resumption triggers or anchor expiries past the last arrival — without
// the drain phase JIT delivers fewer finals than REF.
func roadmapWorkload(t *testing.T, seed int64) (*stream.Catalog, predicate.Conj, []*stream.Tuple) {
	t.Helper()
	cat, conj := predicate.Clique(4)
	arrivals := source.Generate(cat, source.UniformConfig(4, 8, 100, 3*stream.Minute, seed))
	return cat, conj, arrivals
}

func runDrained(t *testing.T, cat *stream.Catalog, conj predicate.Conj, arrivals []*stream.Tuple, shape *plan.Node, mode core.Mode) (Result, []string) {
	t.Helper()
	b := plan.BuildTree(cat, conj, shape, plan.Options{
		Window: 2 * stream.Minute, Mode: mode, KeepResults: true,
	})
	r := NewWithOptions(b, Options{Drain: true}).Run(arrivals)
	return r, b.Sink.ResultKeys()
}

// TestEndOfStreamDrain asserts the drain-at-horizon invariant across a
// seed × topology sweep of the ROADMAP workload family, so the invariant
// isn't pinned to one lucky stream: with Options.Drain every mode
// delivers exactly REF's final-result multiset. Exact sink-order equality
// is asserted only on the canonical seed-1 bushy point (the historical
// ROADMAP regression): drain-phase recoveries fire in deadline order —
// the recovering tuple's window close — not result-timestamp order, so
// two drain-recovered results can legitimately swap relative to REF's
// live order (the documented late-recovery timestamp inversions, DESIGN.md
// §2; seed 3 bushy hits one). The short/full split mirrors jitreport's
// presets: -short keeps the canonical point and the JIT/REF pair; the full
// sweep (three seeds, both plan shapes, the DOE and Bloom ablations) runs
// in the non-short suite and the nightly job.
func TestEndOfStreamDrain(t *testing.T) {
	seeds := []int64{1, 2, 3}
	shapes := []struct {
		name string
		node *plan.Node
	}{
		{"bushy", plan.Bushy(4)},
		{"leftdeep", plan.LeftDeep(4)},
	}
	modes := []struct {
		name string
		mode core.Mode
	}{
		{"JIT", core.JIT()},
		{"DOE", core.DOE()},
		{"Bloom", core.BloomJIT()},
	}
	if testing.Short() {
		seeds = seeds[:1]
		shapes = shapes[:1]
		modes = modes[:1]
	}
	for _, seed := range seeds {
		cat, conj, arrivals := roadmapWorkload(t, seed)
		for si, sh := range shapes {
			canonical := seed == 1 && si == 0
			t.Run(fmt.Sprintf("seed=%d/%s", seed, sh.name), func(t *testing.T) {
				ref, refKeys := runDrained(t, cat, conj, arrivals, sh.node, core.REF())
				if ref.Counters.FinalResults == 0 {
					t.Fatalf("degenerate workload, REF delivered nothing")
				}
				for _, m := range modes {
					r, keys := runDrained(t, cat, conj, arrivals, sh.node, m.mode)
					if r.Counters.FinalResults != ref.Counters.FinalResults {
						t.Errorf("%s: %d finals vs REF %d", m.name,
							r.Counters.FinalResults, ref.Counters.FinalResults)
					}
					if len(keys) != len(refKeys) {
						t.Errorf("%s: sink kept %d results vs REF %d", m.name, len(keys), len(refKeys))
						continue
					}
					if !canonical {
						// Multiset equality only: order may differ by the
						// documented late-recovery inversions.
						want := make(map[string]int, len(refKeys))
						for _, k := range refKeys {
							want[k]++
						}
						for _, k := range keys {
							want[k]--
						}
						for k, n := range want {
							if n != 0 {
								t.Errorf("%s: result %s off by %+d vs REF", m.name, k, -n)
							}
						}
						continue
					}
					if r.OrderViolations != 0 {
						t.Errorf("%s: %d order violations", m.name, r.OrderViolations)
					}
					for i := range keys {
						if keys[i] != refKeys[i] {
							t.Errorf("%s: sink order diverges at %d: %s vs REF %s",
								m.name, i, keys[i], refKeys[i])
							break
						}
					}
				}
			})
		}
	}
}

// TestDrainlessRunDropsFinals pins the gap the drain exists to close: on the
// same workload a drain-less JIT run delivers strictly fewer finals than
// REF. If this ever starts passing without the drain, the workload no
// longer exercises the end-of-stream case and should be retuned. It is a
// workload-tuning canary, not an equivalence gate, so it runs only in the
// full suite (two more dense drain-less runs the short budget can't afford).
func TestDrainlessRunDropsFinals(t *testing.T) {
	if testing.Short() {
		t.Skip("workload-tuning canary on the dense workload; full suite only")
	}
	cat, conj, arrivals := roadmapWorkload(t, 1)
	build := func(mode core.Mode) *plan.Built {
		return plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{
			Window: 2 * stream.Minute, Mode: mode,
		})
	}
	refB := build(core.REF())
	New(refB).Run(arrivals)
	jitB := build(core.JIT())
	New(jitB).Run(arrivals)
	if jitB.Sink.Count() >= refB.Sink.Count() {
		t.Fatalf("drain-less JIT delivered %d finals, REF %d — workload no longer exercises the end-of-stream gap",
			jitB.Sink.Count(), refB.Sink.Count())
	}
}
