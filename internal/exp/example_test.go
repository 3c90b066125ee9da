package exp_test

import (
	"fmt"

	"repro/internal/exp"
)

// ExampleSpecByID resolves a figure spec and executes a miniature sweep:
// scaling the horizon and the sizes trades fidelity for speed, which is
// exactly how the quick presets and this example keep runs in the
// sub-second range.
func ExampleSpecByID() {
	spec, ok := exp.SpecByID(10)
	if !ok {
		panic("figure 10 missing")
	}
	cfg := exp.Config{
		Scale:     0.001,
		SizeScale: 0.1,
		Modes:     []exp.NamedMode{{Name: "REF", Mode: exp.DefaultModes()[1].Mode}},
		Workload:  exp.Params{Seed: 1},
	}
	fig := spec.Run(cfg)
	fmt.Println(fig.ID, "points:", len(fig.Points))
	fmt.Println("modes:", fig.Modes)
	// Output:
	// fig10 points: 5
	// modes: [REF]
}

// ExampleDefaultModes lists the paper's primary comparison.
func ExampleDefaultModes() {
	for _, nm := range exp.DefaultModes() {
		fmt.Println(nm.Name)
	}
	// Output:
	// JIT
	// REF
}
