package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// sweepEveryArrival is the reference discipline the deadline scheduler is
// measured against: plan.Built.ReplayInWindow sweeps every operator before
// every arrival (the step a migration and a recovery replay take), and the
// end-of-stream drain is the scheduler's own.
func sweepEveryArrival(b *plan.Built, arrivals []*stream.Tuple, drain bool) Result {
	b.SetExact(drain)
	b.ReplayInWindow(arrivals)
	if drain {
		s := newScheduler(b.Joins)
		s.refresh()
		s.drain(arrivals[len(arrivals)-1].TS+b.Window, b.RunLedger, nil)
	}
	return Result{Results: b.Sink.Count(), PeakMemKB: b.Account.PeakKB(), Counters: b.Totals()}
}

// TestDeadlineSweepEquivalence pins the DESIGN.md §4 deadline contract:
// skipping a sweep below an operator's NextDeadline changes nothing, so a
// deadline-scheduled run and a sweep-every-arrival run produce identical
// results, identical sink order and identical counters — except Sweeps, which
// is exactly the scheduling win. Sweeps must strictly decrease on sparse
// streams, where most per-arrival sweeps were no-ops.
func TestDeadlineSweepEquivalence(t *testing.T) {
	workloads := []struct {
		name    string
		n       int
		rate    float64
		dmax    int64
		window  stream.Time
		horizon stream.Time
		bushy   bool
	}{
		{"sparse", 3, 0.2, 20, 2 * stream.Minute, 10 * stream.Minute, true},
		{"default", 3, 1.0, 5, 45 * stream.Second, 3 * stream.Minute, false},
		{"dense", 4, 8.0, 100, 30 * stream.Second, 80 * stream.Second, true},
	}
	modes := []struct {
		name string
		mode core.Mode
	}{
		{"JIT", core.JIT()},
		{"DOE", core.DOE()},
		{"Bloom", core.BloomJIT()},
	}
	for _, w := range workloads {
		cat, conj := predicate.Clique(w.n)
		arrivals := source.Generate(cat, source.UniformConfig(w.n, w.rate, w.dmax, w.horizon, 1))
		shape := plan.LeftDeep(w.n)
		if w.bushy {
			shape = plan.Bushy(w.n)
		}
		for _, m := range modes {
			run := func(everyArrival, drain bool) (Result, []string) {
				b := plan.BuildTree(cat, conj, shape, plan.Options{
					Window: w.window, Mode: m.mode, KeepResults: true,
				})
				if everyArrival {
					return sweepEveryArrival(b, arrivals, drain), b.Sink.ResultKeys()
				}
				return NewWithOptions(b, Options{Drain: drain}).Run(arrivals), b.Sink.ResultKeys()
			}
			for _, drain := range []bool{false, true} {
				sched, schedKeys := run(false, drain)
				every, everyKeys := run(true, drain)
				sc, ec := sched.Counters, every.Counters
				sc.Sweeps, ec.Sweeps = 0, 0
				if sc != ec {
					t.Errorf("%s/%s drain=%v: counters diverge\nsched: %s\nevery: %s",
						w.name, m.name, drain, sc.String(), ec.String())
				}
				if sched.Results != every.Results || sched.PeakMemKB != every.PeakMemKB {
					t.Errorf("%s/%s drain=%v: results %d vs %d, mem %.1f vs %.1f",
						w.name, m.name, drain, sched.Results, every.Results,
						sched.PeakMemKB, every.PeakMemKB)
				}
				if len(schedKeys) != len(everyKeys) {
					t.Errorf("%s/%s drain=%v: sink sizes %d vs %d", w.name, m.name, drain,
						len(schedKeys), len(everyKeys))
				} else {
					for i := range schedKeys {
						if schedKeys[i] != everyKeys[i] {
							t.Errorf("%s/%s drain=%v: sink order diverges at %d",
								w.name, m.name, drain, i)
							break
						}
					}
				}
				if sched.Counters.Sweeps > every.Counters.Sweeps {
					t.Errorf("%s/%s drain=%v: deadline scheduling fired MORE sweeps (%d) than every-arrival (%d)",
						w.name, m.name, drain, sched.Counters.Sweeps, every.Counters.Sweeps)
				}
			}
		}
		// The scheduling win itself: on the sparse workload the deadline scheduler
		// must skip the vast majority of per-arrival sweeps.
		if w.name == "sparse" {
			b := plan.BuildTree(cat, conj, shape, plan.Options{Window: w.window, Mode: core.JIT()})
			sched := New(b).Run(arrivals)
			b2 := plan.BuildTree(cat, conj, shape, plan.Options{Window: w.window, Mode: core.JIT()})
			every := sweepEveryArrival(b2, arrivals, false)
			if sched.Counters.Sweeps*2 >= every.Counters.Sweeps {
				t.Errorf("sparse: expected <half the sweeps, got %d vs %d",
					sched.Counters.Sweeps, every.Counters.Sweeps)
			}
		}
	}
}
