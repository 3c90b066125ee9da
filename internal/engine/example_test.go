package engine_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// ExampleEngine_RunStream runs a 3-way clique query over a lazily
// generated workload: tuples stream in one at a time, expiry work fires
// at the operators' deadlines, and the end-of-stream drain delivers every
// result whose resumption trigger falls past the last arrival — the
// finals match REF exactly (DESIGN.md §4).
func ExampleEngine_RunStream() {
	cat, conj := predicate.Clique(3)
	b := plan.BuildTree(cat, conj, plan.Bushy(3), plan.Options{
		Window: stream.Minute, Mode: core.JIT(),
	})
	eng := engine.NewWithOptions(b, engine.Options{Drain: true})
	cfg := source.UniformConfig(3, 1, 20, 2*stream.Minute, 1)
	res := eng.RunStream(source.Stream(cat, cfg))
	fmt.Println("arrivals:", res.Arrivals)
	fmt.Println("finals:", res.Results)
	// Output:
	// arrivals: 364
	// finals: 97
}

// ExampleEngine_Run adapts a hand-built trace to the same loop: three
// tuples sharing one join value arrive within the window, producing one
// final result.
func ExampleEngine_Run() {
	cat, conj := predicate.Clique(3)
	b := plan.BuildTree(cat, conj, plan.Bushy(3), plan.Options{
		Window: stream.Minute, Mode: core.REF(),
	})
	arrivals := []*stream.Tuple{
		{ID: 1, Source: 0, TS: 0, Vals: []stream.Value{7, 7}},
		{ID: 2, Source: 1, TS: stream.Second, Vals: []stream.Value{7, 7}},
		{ID: 3, Source: 2, TS: 2 * stream.Second, Vals: []stream.Value{7, 7}},
	}
	res := engine.New(b).Run(arrivals)
	fmt.Println("finals:", res.Results)
	// Output:
	// finals: 1
}
