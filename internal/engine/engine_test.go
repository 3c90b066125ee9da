package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

func run(t *testing.T, mode core.Mode, seed int64) Result {
	t.Helper()
	cat, conj := predicate.Clique(3)
	arrivals := source.Generate(cat, source.UniformConfig(3, 1.0, 5, 3*stream.Minute, seed))
	b := plan.BuildTree(cat, conj, plan.LeftDeep(3), plan.Options{
		Window: 45 * stream.Second, Mode: mode,
	})
	return New(b).Run(arrivals)
}

func TestRunDeterministic(t *testing.T) {
	a := run(t, core.REF(), 4)
	b := run(t, core.REF(), 4)
	if a.Results != b.Results || a.CostUnits != b.CostUnits || a.PeakMemKB != b.PeakMemKB {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	if a.Arrivals == 0 || a.Results == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}

func TestRunMeasures(t *testing.T) {
	r := run(t, core.JIT(), 4)
	if r.CostUnits == 0 || r.PeakMemKB <= 0 || r.WallTime <= 0 {
		t.Fatalf("missing measurements: %+v", r)
	}
	if r.OrderViolations != 0 {
		t.Fatalf("order violations: %d", r.OrderViolations)
	}
	if r.Counters.Comparisons == 0 || r.Counters.Inserted == 0 {
		t.Fatalf("counters empty: %s", r.Counters.String())
	}
}

func TestJITMatchesREFResultCount(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ref := run(t, core.REF(), seed)
		jit := run(t, core.JIT(), seed)
		if ref.Results != jit.Results {
			t.Fatalf("seed %d: REF %d vs JIT %d results", seed, ref.Results, jit.Results)
		}
	}
}
