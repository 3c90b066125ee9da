// Quickstart: the paper's running example (Fig. 1 + Table I) end to end.
//
// Three streams A(x,y), B(x), C(y) are joined with A.x=B.x AND A.y=C.y over
// a 5-minute window. The hand-built arrival sequence of Table I shows JIT in
// action: a1 is suspended after its first fruitless partial result, b4 and
// a2 are diverted without producing anything, and c1's arrival resumes
// production of exactly the suppressed partial results.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

func main() {
	cat := stream.NewCatalog()
	cat.MustAdd(stream.NewSchema("A", "x", "y"))
	cat.MustAdd(stream.NewSchema("B", "x"))
	cat.MustAdd(stream.NewSchema("C", "y"))
	conj := predicate.Conj{
		{Left: 0, LCol: 0, Right: 1, RCol: 0}, // A.x = B.x
		{Left: 0, LCol: 1, Right: 2, RCol: 0}, // A.y = C.y
	}

	m := stream.Minute
	trace := source.Merge(
		source.Burst(cat, 1, 0*m, []stream.Value{1}, []stream.Value{1}, []stream.Value{1}), // b1 b2 b3
		source.Burst(cat, 0, 1*m, []stream.Value{1, 100}),                                  // a1
		source.Burst(cat, 1, 2*m, []stream.Value{1}),                                       // b4
		source.Burst(cat, 0, 3*m, []stream.Value{1, 100}),                                  // a2
		source.Burst(cat, 2, 4*m, []stream.Value{100}),                                     // c1
	)

	shape := plan.J(plan.J(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)) // (A ⋈ B) ⋈ C
	for _, mode := range []struct {
		name string
		m    core.Mode
	}{{"REF", core.REF()}, {"JIT", core.JIT()}} {
		b := plan.BuildTree(cat, conj, shape, plan.Options{
			Window: 5 * stream.Minute, Mode: mode.m, KeepResults: true,
		})
		// Drain is on so that if the trace ended while a partial result was
		// still suspended, the drain's timers would deliver or expire it before
		// the run reports — end-of-stream behaviour matches an unbounded run.
		res := engine.NewWithOptions(b, engine.Options{Drain: true}).Run(trace)
		fmt.Printf("%s: %d final results, %d composites built, %d comparisons, peak %.1f KB\n",
			mode.name, res.Results, res.Counters.Results, res.Counters.Comparisons, res.PeakMemKB)
		if mode.name == "JIT" {
			fmt.Printf("     suspended=%d resumed=%d MNS detected=%d feedback messages=%d\n",
				res.Counters.Suspended, res.Counters.Resumed,
				res.Counters.MNSDetected, res.Counters.Feedbacks)
		}
		for _, r := range b.Sink.Results() {
			fmt.Printf("     result %v at t=%v\n", r, r.TS)
		}
	}
}
