package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// clique builds a drained, exact run over the N-source clique on
// clique_jit's stream shape (λ=2.5 per source, dmax=16, w=1 min, linear-scan
// states) for the given mode and plan shape, and returns the lazy ten-minute
// arrival iterator.
func clique(n int, shape *plan.Node, mode core.Mode) (*plan.Built, *Engine, func() (*stream.Tuple, bool)) {
	cat, conj := predicate.Clique(n)
	b := plan.BuildTree(cat, conj, shape, plan.Options{Window: stream.Minute, Mode: mode, NoStateIndex: true})
	next := source.Stream(cat, source.UniformConfig(n, 2.5, 16, 10*stream.Minute, 1))
	return b, NewWithOptions(b, Options{Drain: true}), next
}

// TestParkedPairsJoin holds Type II suppression to the paper's rule: an
// origin suppresses the results of marked × marked pairs, so every pair it
// parks for its unmark joins. Every 50 arrivals, each pair a plan still owes
// through an origin must satisfy every predicate of the query crossing its
// two halves. While a suppressed pair was parked before its predicates were
// evaluated, the pending rows held pairs that would never join — 1.1 M
// suppressed against 47 694 composites built on the drained left-deep N=4
// cell. -short runs N=4 only.
func TestParkedPairsJoin(t *testing.T) {
	sizes := []int{4, 5}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for _, shape := range []*plan.Node{plan.Bushy(n), plan.LeftDeep(n)} {
			t.Run(fmt.Sprintf("N%d/%s", n, shape.Canonical()), func(t *testing.T) {
				_, conj := predicate.Clique(n)
				b, eng, next := clique(n, shape, core.JIT())
				root := b.Joins[len(b.Joins)-1]
				arrivals, pairs := 0, 0
				check := func() (*stream.Tuple, bool) {
					if arrivals++; arrivals%50 == 0 {
						root.Owed(nil, feedback.NoExpiry, func(l, r *stream.Composite, _ stream.Time) {
							if r == nil {
								return // a parked tuple
							}
							pairs++
							if ok, _ := conj.EvalPair(l, r); !ok {
								t.Fatalf("arrival %d: the parked pair %v, %v does not join", arrivals, l, r)
							}
						})
					}
					return next()
				}
				res := eng.RunStream(check)
				if res.Counters.SuppressedPairs == 0 || pairs == 0 {
					t.Fatalf("degenerate run: %d pairs suppressed, %d seen parked", res.Counters.SuppressedPairs, pairs)
				}
			})
		}
	}
}

// TestJITHeapTracksAccount bounds what a drained run really holds by what
// its memory account says it holds: at 3, 6 and 9 windows of the clique_jit
// stream, the live heap grown since before the plan was built (after a full
// GC) over Account.Live() must stay within the band set for its mode and
// shape, about 10 % beyond the ratios measured. The account charges state,
// graveyards, blacklists, MNS tables, pending pairs and Bloom filters
// (metrics.Mem). A heap that outgrows it holds something nobody accounts — as
// the mark ids a join result used to inherit from its inputs did, at
// 3.0–3.4× on both shapes, and the per-tuple mark maps and per-detection
// predicate lists did at 2.00–2.16× left-deep. A heap that falls below the
// band means the account charges what is not held, or the heap is no longer
// measured. The readings below span plain and race-detector runs. REF holds
// only state and reads 0.56–0.65× bushy and 0.53–0.60× left-deep. JIT reads
// 0.66–0.75× bushy and 1.15–1.21× left-deep since composites carry no mark
// ids (0.77–0.83× and 1.26–1.29× while they did; 0.86–0.94× and 1.28–1.31×
// while origin entries copied their side signatures and a map repeated their
// ids; 0.96–1.04× and 1.51–1.61× while origins kept unaccounted lists of the
// tuples they had marked).
func TestJITHeapTracksAccount(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   core.Mode
		shape  *plan.Node
		lo, hi float64
	}{
		{"", core.JIT(), plan.Bushy(4), 0.60, 0.83},
		{"", core.JIT(), plan.LeftDeep(4), 1.03, 1.33},
		{"ref/", core.REF(), plan.Bushy(4), 0.50, 0.72},
		{"ref/", core.REF(), plan.LeftDeep(4), 0.47, 0.66},
	} {
		t.Run(tc.name+tc.shape.Canonical(), func(t *testing.T) {
			var m runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m)
			base := m.HeapAlloc
			b, eng, next := clique(4, tc.shape, tc.mode)
			checkpoint := 3 * b.Window
			probe := func() (*stream.Tuple, bool) {
				tu, ok := next()
				if ok && tu.TS >= checkpoint && checkpoint <= 9*b.Window {
					runtime.GC()
					runtime.ReadMemStats(&m)
					heap, live := int64(m.HeapAlloc)-int64(base), b.Account.Live()
					ratio := float64(heap) / float64(live)
					t.Logf("%v: heap %d KB, account %d KB, %.2f×", checkpoint, heap>>10, live>>10, ratio)
					if ratio < tc.lo || ratio > tc.hi {
						t.Errorf("%v: heap grew %d B against %d B accounted, %.2f× (band %.2f–%.2f×)", checkpoint, heap, live, ratio, tc.lo, tc.hi)
					}
					checkpoint += 3 * b.Window
				}
				return tu, ok
			}
			res := eng.RunStream(probe)
			if res.Results == 0 || (tc.mode == core.JIT()) != (res.Counters.Suspended > 0) {
				t.Fatalf("degenerate run: %d results, %d suspended", res.Results, res.Counters.Suspended)
			}
		})
	}
}
