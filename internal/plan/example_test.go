package plan_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// ExampleBushy shows the Table II plan shapes for N=5 sources.
func ExampleBushy() {
	cat, _ := predicate.Clique(5)
	fmt.Println(plan.Bushy(5).Render(cat))
	fmt.Println(plan.LeftDeep(5).Render(cat))
	// Output:
	// (((A B) (C D)) E)
	// ((((A B) C) D) E)
}

// ExampleBuildTree wires a 3-way query into join operators and shows the
// derived equi-key columns doing their work: the bushy root joins {A,B}
// with {C} on the single crossing predicate A.y = C.y.
func ExampleBuildTree() {
	cat := stream.NewCatalog()
	cat.MustAdd(stream.NewSchema("A", "x", "y"))
	cat.MustAdd(stream.NewSchema("B", "x"))
	cat.MustAdd(stream.NewSchema("C", "y"))
	conj := predicate.Conj{
		{Left: 0, LCol: 0, Right: 1, RCol: 0}, // A.x = B.x
		{Left: 0, LCol: 1, Right: 2, RCol: 0}, // A.y = C.y
	}
	shape := plan.J(plan.J(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2))
	b := plan.BuildTree(cat, conj, shape, plan.Options{
		Window: 5 * stream.Minute, Mode: core.JIT(),
	})
	fmt.Println(b.Describe())
	for j, n := range []*plan.Node{shape.Left, shape} {
		key, _, _ := conj.EquiKeyCols(n.Left.Sources(), n.Right.Sources())
		left, _, _ := b.Joins[j].Side(0)
		fmt.Printf("%s indexed on %v: %v\n", b.Joins[j].Name(), key, left.Indexed())
	}
	// Output:
	// Op1({0}⋈{1}) ; Op2({0,1}⋈{2})
	// Op1 indexed on [s0.c0]: true
	// Op2 indexed on [s0.c1]: true
}
