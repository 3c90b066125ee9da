package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// jitClique builds drained, exact JIT over the N-source clique on clique_jit's
// stream shape (λ=2.5 per source, dmax=16, w=1 min, linear-scan states) for
// the given plan shape, and returns the lazy ten-minute arrival iterator.
func jitClique(n int, shape *plan.Node, keep bool) (*plan.Built, *Engine, func() (*stream.Tuple, bool)) {
	cat, conj := predicate.Clique(n)
	b := plan.BuildTree(cat, conj, shape, plan.Options{
		Window: stream.Minute, Mode: core.JIT(), NoStateIndex: true, KeepResults: keep,
	})
	next := source.Stream(cat, source.UniformConfig(n, 2.5, 16, 10*stream.Minute, 1))
	return b, NewWithOptions(b, Options{Drain: true}), next
}

// TestMarksStayAtTheirOrigin holds the Type II mark machinery to its id
// locality (DESIGN.md §2): a mark id is set and read only on the inputs of
// the operator it originated at, so no result that reaches the sink carries
// one. Until stream.Join stopped unioning its
// inputs' marks, 1 123 of the 1 124 finals of the bushy N=4 cell carried
// 49 350 mark ids between them, which nothing ever read. -short runs N=4 only.
func TestMarksStayAtTheirOrigin(t *testing.T) {
	sizes := []int{4, 5}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for _, shape := range []*plan.Node{plan.Bushy(n), plan.LeftDeep(n)} {
			t.Run(fmt.Sprintf("N%d/%s", n, shape.Canonical()), func(t *testing.T) {
				b, eng, next := jitClique(n, shape, true)
				res := eng.RunStream(next)
				if res.Counters.Suspended == 0 || res.Results == 0 {
					t.Fatalf("degenerate run: %d finals, %d suspensions", res.Results, res.Counters.Suspended)
				}
				marked, ids := 0, 0
				for _, c := range b.Sink.Results() {
					if len(c.Marks()) > 0 {
						marked++
						ids += len(c.Marks())
					}
				}
				if marked > 0 {
					t.Errorf("%d of %d finals carry %d mark ids", marked, res.Results, ids)
				}
			})
		}
	}
}

// TestJITHeapTracksAccount bounds what drained JIT really holds by what its
// memory account says it holds: at 3, 6 and 9 windows of the clique_jit
// stream, the live heap grown since before the plan was built (after a full
// GC) must stay within 1.48× Account.Live(), about 15 % over the worst
// ratio measured. The account charges state, graveyards, blacklists, MNS
// tables, pending pairs and Bloom filters (metrics.Mem); a heap that outgrows
// it holds something nobody accounts — as the mark ids a join result used to
// inherit from its inputs did, at 3.0–3.4× on both shapes, and the per-tuple
// mark maps and per-detection predicate lists did at 2.00–2.16× left-deep. It
// reads 0.77–0.83× bushy and 1.26–1.29× left-deep now (0.86–0.94× and
// 1.28–1.31× while origin entries copied their side signatures and a map
// repeated their ids; 0.96–1.04× and 1.51–1.61× while origins kept
// unaccounted lists of the tuples they had marked).
func TestJITHeapTracksAccount(t *testing.T) {
	const maxRatio = 1.48
	for _, shape := range []*plan.Node{plan.Bushy(4), plan.LeftDeep(4)} {
		t.Run(shape.Canonical(), func(t *testing.T) {
			var m runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m)
			base := m.HeapAlloc
			b, eng, next := jitClique(4, shape, false)
			checkpoint := 3 * b.Window
			probe := func() (*stream.Tuple, bool) {
				tu, ok := next()
				if ok && tu.TS >= checkpoint && checkpoint <= 9*b.Window {
					runtime.GC()
					runtime.ReadMemStats(&m)
					heap, live := int64(m.HeapAlloc)-int64(base), b.Account.Live()
					ratio := float64(heap) / float64(live)
					t.Logf("%v: heap %d KB, account %d KB, %.2f×", checkpoint, heap>>10, live>>10, ratio)
					if ratio > maxRatio {
						t.Errorf("%v: heap grew %d B against %d B accounted, %.2f× (bound %.2f×)", checkpoint, heap, live, ratio, maxRatio)
					}
					checkpoint += 3 * b.Window
				}
				return tu, ok
			}
			if res := eng.RunStream(probe); res.Counters.Suspended == 0 {
				t.Fatal("degenerate run: nothing suspended")
			}
		})
	}
}
