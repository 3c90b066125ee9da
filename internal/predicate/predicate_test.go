package predicate

import (
	"testing"

	"repro/internal/stream"
)

func tpl(src stream.SourceID, vals ...stream.Value) *stream.Tuple {
	return &stream.Tuple{Source: src, TS: 1, Vals: vals}
}

func TestEqHolds(t *testing.T) {
	a := stream.NewComposite(2, tpl(0, 5, 7))
	b := stream.NewComposite(2, tpl(1, 5))
	e := Eq{Left: 0, LCol: 0, Right: 1, RCol: 0}
	if !e.Holds(a, b) {
		t.Fatal("equal values should hold")
	}
	e2 := Eq{Left: 0, LCol: 1, Right: 1, RCol: 0}
	if e2.Holds(a, b) {
		t.Fatal("7 != 5")
	}
	// Vacuous truth with missing endpoint.
	e3 := Eq{Left: 0, LCol: 0, Right: 1, RCol: 0}
	onlyA := stream.NewComposite(2, tpl(0, 9, 9))
	if !e3.Holds(onlyA, onlyA) {
		t.Fatal("missing endpoint should be vacuously true")
	}
}

func TestConjBetween(t *testing.T) {
	conj := Conj{
		{Left: 0, LCol: 0, Right: 1, RCol: 0},
		{Left: 0, LCol: 1, Right: 2, RCol: 0},
		{Left: 1, LCol: 1, Right: 2, RCol: 1},
	}
	l := stream.SourceSet(0).Add(0).Add(1)
	r := stream.SourceSet(0).Add(2)
	atoms := conj.SourcesLinkedTo(l, r)
	if len(atoms) != 2 {
		t.Fatalf("want atoms {0,1}, got %v", atoms)
	}
	touch := conj.TouchingAcross(0, r)
	if len(touch) != 1 {
		t.Fatalf("want 1 pred touching source 0 across, got %d", len(touch))
	}
}

func TestEvalPair(t *testing.T) {
	conj := Conj{
		{Left: 0, LCol: 0, Right: 1, RCol: 0},
		{Left: 0, LCol: 1, Right: 2, RCol: 0},
	}
	a := stream.NewComposite(3, tpl(0, 5, 8))
	b := stream.NewComposite(3, tpl(1, 5))
	ok, n := conj.EvalPair(a, b)
	if !ok || n != 1 {
		t.Fatalf("eval: ok=%v n=%d", ok, n)
	}
	c := stream.NewComposite(3, tpl(2, 9))
	ok, _ = conj.EvalPair(a, c)
	if ok {
		t.Fatal("8 != 9 should fail")
	}
}

func TestJoinAttrs(t *testing.T) {
	conj := Conj{
		{Left: 0, LCol: 0, Right: 1, RCol: 0},
		{Left: 0, LCol: 1, Right: 2, RCol: 0},
		{Left: 2, LCol: 1, Right: 0, RCol: 1}, // reversed direction, same attr 0.1
	}
	attrs := conj.JoinAttrs(0, stream.SourceSet(0).Add(1).Add(2))
	if len(attrs) != 2 {
		t.Fatalf("want deduped attrs {0.0, 0.1}, got %v", attrs)
	}
	if attrs[0].Col > attrs[1].Col {
		t.Fatal("attrs not sorted")
	}
}

func TestSelection(t *testing.T) {
	s := Selection{Source: 0, Col: 0, Op: GT, Const: 200}
	lo := stream.NewComposite(1, tpl(0, 100))
	hi := stream.NewComposite(1, tpl(0, 300))
	if s.Holds(lo) || !s.Holds(hi) {
		t.Fatal("selection wrong")
	}
	ops := []struct {
		op   CmpOp
		a, b stream.Value
		want bool
	}{
		{LT, 1, 2, true}, {LE, 2, 2, true}, {EQ, 2, 2, true},
		{NE, 1, 2, true}, {GE, 2, 2, true}, {GT, 3, 2, true},
		{LT, 2, 2, false}, {EQ, 1, 2, false}, {GT, 2, 2, false},
	}
	for _, c := range ops {
		if c.op.Eval(c.a, c.b) != c.want {
			t.Errorf("%v %s %v != %v", c.a, c.op, c.b, c.want)
		}
	}
}

// TestClique checks the paper's example: with 4 sources the predicate is
// (A.x1=B.x1) ∧ (A.x2=C.x2) ∧ (A.x3=D.x3) ∧ (B.x4=C.x4) ∧ (B.x5=D.x5) ∧
// (C.x6=D.x6) — six conditions, each source with three columns, every
// column used exactly once per source pair.
func TestClique(t *testing.T) {
	cat, conj := Clique(4)
	if cat.NumSources() != 4 {
		t.Fatalf("want 4 sources")
	}
	if len(conj) != 6 {
		t.Fatalf("want 6 predicates, got %d", len(conj))
	}
	for i := 0; i < 4; i++ {
		if cat.Source(stream.SourceID(i)).NumCols() != 3 {
			t.Fatalf("source %d should have 3 columns", i)
		}
	}
	// Every pair appears exactly once.
	seen := map[[2]stream.SourceID]bool{}
	for _, e := range conj {
		k := [2]stream.SourceID{e.Left, e.Right}
		if seen[k] {
			t.Fatalf("duplicate pair %v", k)
		}
		seen[k] = true
	}
	// Each source's columns used once each across its predicates.
	used := map[Attr]int{}
	for _, e := range conj {
		used[Attr{Source: e.Left, Col: e.LCol}]++
		used[Attr{Source: e.Right, Col: e.RCol}]++
	}
	for a, n := range used {
		if n != 1 {
			t.Fatalf("attr %v used %d times", a, n)
		}
	}
}

func TestCliqueSizes(t *testing.T) {
	for n := 2; n <= 8; n++ {
		_, conj := Clique(n)
		want := n * (n - 1) / 2
		if len(conj) != want {
			t.Fatalf("N=%d: want %d preds, got %d", n, want, len(conj))
		}
	}
}
