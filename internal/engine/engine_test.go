package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
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

// TestOperatorStatsSumToCounters pins the contract of Result.Ops: each
// per-operator stat is the operator's slice of the plan-wide counter of the
// same name, so the rows sum to it. The drained N=4 clique parks most of its
// tuples through Type I suspensions on the bushy plan and re-defers
// suppressed pairs between marks on the left-deep one — the two paths that
// used to bump only the plan-wide counter.
func TestOperatorStatsSumToCounters(t *testing.T) {
	cat, conj := predicate.Clique(4)
	arrivals := source.Generate(cat, source.UniformConfig(4, 1, 20, 6*stream.Minute, 1))
	for _, shape := range []*plan.Node{plan.Bushy(4), plan.LeftDeep(4)} {
		for _, name := range []string{"jit", "doe", "bloom"} {
			mode, _ := core.ParseMode(name)
			b := plan.BuildTree(cat, conj, shape, plan.Options{Window: 2 * stream.Minute, Mode: mode})
			r := NewWithOptions(b, Options{Drain: true}).Run(arrivals)
			var sum metrics.OpStats
			for _, op := range r.Ops {
				sum.Add(op.Stats)
			}
			want := metrics.OpStats{
				Probes: r.Counters.Probes, MNSDetected: r.Counters.MNSDetected,
				Suspended: r.Counters.Suspended, SuppressedPairs: r.Counters.SuppressedPairs,
			}
			if sum != want {
				t.Errorf("%s %s: operator rows sum to %+v, plan-wide counters are %+v", name, shape.Canonical(), sum, want)
			}
			if name == "jit" && (want.Suspended == 0 || want.SuppressedPairs == 0) {
				t.Errorf("%s %s: degenerate run, %+v", name, shape.Canonical(), want)
			}
		}
	}
}
