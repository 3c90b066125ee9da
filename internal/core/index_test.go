package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/state"
	"repro/internal/stream"
)

// runKeys executes one engine over the arrivals and returns the sink's
// result keys in delivery order.
func runKeys(cat *stream.Catalog, conj predicate.Conj, shape *plan.Node, arrivals []*stream.Tuple, m core.Mode, noIndex bool) []string {
	b := plan.BuildTree(cat, conj, shape, plan.Options{
		Window: 90 * stream.Second, Mode: m, KeepResults: true, NoStateIndex: noIndex,
	})
	engine.New(b).Run(arrivals)
	return b.Sink.ResultKeys()
}

func sameSequence(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d results with scans, %d with the index", label, len(want), len(got))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: delivery %d differs: scan=%s indexed=%s", label, i, want[i], got[i])
			return
		}
	}
}

// TestIndexedEquivalentToScan is invariant 4 of DESIGN.md §2 applied to the
// state index: for every execution mode, an indexed run delivers exactly
// the same results in exactly the same sink order as a scan-only run.
// -short keeps one seed and the REF/JIT pair (the jitreport short preset);
// the DOE/Bloom ablations run in the full suite.
func TestIndexedEquivalentToScan(t *testing.T) {
	modes := []struct {
		name string
		m    core.Mode
	}{
		{"REF", core.REF()}, {"JIT", core.JIT()},
		{"DOE", core.DOE()}, {"Bloom", core.BloomJIT()},
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
		modes = modes[:2]
	}
	for _, bushy := range []bool{true, false} {
		cat, conj := predicate.Clique(4)
		shape := plan.Bushy(4)
		if !bushy {
			shape = plan.LeftDeep(4)
		}
		for _, seed := range seeds {
			arrivals := source.Generate(cat, source.UniformConfig(4, 0.8, 5, 5*stream.Minute, seed))
			for _, mode := range modes {
				label := fmt.Sprintf("%s_bushy%v_seed%d", mode.name, bushy, seed)
				scan := runKeys(cat, conj, shape, arrivals, mode.m, true)
				indexed := runKeys(cat, conj, shape, arrivals, mode.m, false)
				sameSequence(t, label, scan, indexed)
			}
		}
	}
}

// crossQuery builds a 3-source query whose root join has no crossing
// predicate: ((A B) C) with only A.x = B.x. The root is a windowed cross
// product, the no-equi-key fallback case of DESIGN.md §3.
func crossQuery() (*stream.Catalog, predicate.Conj, *plan.Node) {
	cat := stream.NewCatalog()
	cat.MustAdd(stream.NewSchema("A", "x"))
	cat.MustAdd(stream.NewSchema("B", "x"))
	cat.MustAdd(stream.NewSchema("C", "y"))
	conj := predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}}
	return cat, conj, plan.J(plan.J(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2))
}

// TestIndexFallbackCrossProduct verifies that a join without crossing equi
// predicates stays scan-only and that results match an index-disabled run.
func TestIndexFallbackCrossProduct(t *testing.T) {
	cat, conj, shape := crossQuery()
	b := plan.BuildTree(cat, conj, shape, plan.Options{Window: 90 * stream.Second, Mode: core.REF()})
	if len(b.Joins) != 2 {
		t.Fatalf("want 2 joins, got %d", len(b.Joins))
	}
	// Op1 ({A}×{B}) carries the equi key; the root ({A,B}×{C}) must not.
	for p := operator.Port(0); p < 2; p++ {
		if st, _, _ := b.Joins[0].Side(p); !st.Indexed() {
			t.Errorf("Op1 side %v should be indexed", p)
		}
		if st, _, _ := b.Joins[1].Side(p); st.Indexed() {
			t.Errorf("root side %v must be scan-only (cross product)", p)
		}
	}
	modes := []core.Mode{core.REF(), core.JIT()}
	if testing.Short() {
		modes = modes[:1]
	}
	for _, m := range modes {
		arrivals := source.Generate(cat, source.UniformConfig(3, 1.0, 4, 3*stream.Minute, 9))
		scan := runKeys(cat, conj, shape, arrivals, m, true)
		indexed := runKeys(cat, conj, shape, arrivals, m, false)
		if len(scan) == 0 {
			t.Fatal("workload produced no results; test is vacuous")
		}
		sameSequence(t, fmt.Sprintf("cross_%v", m), scan, indexed)
	}
}

// TestIndexDisabledOption verifies the plan-level switch reaches every
// operator state.
func TestIndexDisabledOption(t *testing.T) {
	cat, conj := predicate.Clique(4)
	b := plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{
		Window: time90s(), Mode: core.JIT(), NoStateIndex: true,
	})
	for _, j := range b.Joins {
		for p := operator.Port(0); p < 2; p++ {
			if st, _, _ := j.Side(p); st.Indexed() {
				t.Errorf("%s side %v indexed despite NoStateIndex", j.Name(), p)
			}
		}
	}
}

func time90s() stream.Time { return 90 * stream.Second }

// storeAudit is a trace sink that, at every event the run emits — each
// arrival, and each probe, suspension and resumption, the sweeps' included
// — walks every side's live state and graveyard of the plan.
type storeAudit struct {
	t       *testing.T
	label   string
	b       *plan.Built
	retired int // graveyard entries seen, summed over the audits
}

// Emit implements obs.Sink.
func (a *storeAudit) Emit(obs.Event) {
	for _, j := range a.b.Joins {
		for p := operator.Left; p <= operator.Right; p++ {
			live, grave, srcs := j.Stores(p)
			for _, st := range []*state.State{live, grave} {
				st.Scan(func(e state.Entry) bool {
					if e.C.Sources != srcs {
						a.t.Fatalf("%s: %s port %v holds %v, the port carries %v", a.label, j.Name(), p, e.C.Sources, srcs)
					}
					return true
				})
			}
			a.retired += grave.Len()
		}
	}
}

// TestStoresHoldWholeComposites proves that every composite a wired
// operator stores carries all of its port's sources, live or retired, on
// both plan shapes, in every mode, with and without indexed states, drained
// (exact mode, where graveyards fill). A State files entries by the hash of
// their key sources' values and refuses a composite lacking one
// (state.Key.Hash), so the overflow list such a composite once went to
// could not be reached.
func TestStoresHoldWholeComposites(t *testing.T) {
	cat, conj := predicate.Clique(4)
	arrivals := source.Generate(cat, source.UniformConfig(4, 4, 12, 150*stream.Second, 1))
	for _, shape := range []*plan.Node{plan.Bushy(4), plan.LeftDeep(4)} {
		for _, name := range []string{"ref", "jit", "doe", "bloom"} {
			retired := 0
			for _, indexed := range []bool{false, true} {
				mode, _ := core.ParseMode(name)
				b := plan.BuildTree(cat, conj, shape, plan.Options{Window: 15 * stream.Second, Mode: mode, NoStateIndex: !indexed})
				audit := &storeAudit{t: t, label: fmt.Sprintf("%s %s indexed=%t", shape.Canonical(), name, indexed), b: b}
				b.SetTrace(obs.New(obs.Options{Sink: audit}))
				engine.NewWithOptions(b, engine.Options{Drain: true}).Run(arrivals)
				retired += audit.retired
			}
			// DOE suspends too rarely on this stream to retire anything.
			if (name == "jit" || name == "bloom") && retired == 0 {
				t.Fatalf("%s %s: no graveyard entry was ever audited", shape.Canonical(), name)
			}
		}
	}
}
