package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// The tests in this file audit the graveyard floor the root computes with
// the claims of the MNSs it detected (DESIGN.md §4): every operator keeps a
// shadow graveyard that only the floor without claims empties
// (JoinOp.AuditGraveyard), and a late input that forms a pair with an entry
// the shadow still holds and the graveyard let go fails the test.

// auditedRun runs one drained plan with every operator's graveyard audited,
// failing t on each pair the claims lost, and returns the run and how many
// let-go entries late inputs reached.
func auditedRun(t *testing.T, label string, arrivals []*stream.Tuple, shape *plan.Node, mode core.Mode, window stream.Time, indexed bool) (engine.Result, int) {
	t.Helper()
	cat, conj := predicate.Clique(4)
	b := plan.BuildTree(cat, conj, shape, plan.Options{Window: window, Mode: mode, NoStateIndex: !indexed})
	var judged []func() int
	lost := 0
	for _, j := range b.Joins {
		name := j.Name()
		judged = append(judged, j.AuditGraveyard(func(in, partner *stream.Composite) {
			if lost++; lost <= 3 {
				t.Errorf("%s: %s lost the pair of late %s with retired %s", label, name, in.Key(), partner.Key())
			}
		}))
	}
	r := engine.NewWithOptions(b, engine.Options{Drain: true}).Run(arrivals)
	n := 0
	for _, f := range judged {
		n += f()
	}
	return r, n
}

// TestShadowGraveyardLosesNothing runs the audit over the shapes and value
// distributions of engine's TestLongStreamExactEquivalence (4-source clique,
// w = 15 s, 8.5 windows, bushy and left-deep, uniform and Zipf 1.5), hash-
// indexed and scanned, in the two modes whose MNSs can claim anything (Ø
// claims nothing, so DOE keeps the full floor), 50 seeds per cell (-short
// 10), and requires the audit to have judged pairs: the claims let go of
// entries late inputs then reached. Dropping every item deferred under an
// honoured MNS from the floor loses a pair here (left-deep, uniform, seed
// 19, indexed): a pair suppressed at an origin after the detection whose
// result is older than it.
func TestShadowGraveyardLosesNothing(t *testing.T) {
	const (
		window  = 15 * stream.Second
		horizon = 17 * window / 2
	)
	seeds := int64(50)
	if testing.Short() {
		seeds = 10
	}
	cat, _ := predicate.Clique(4)
	judged := 0
	for _, v := range []struct {
		name string
		dmax int64
		zipf float64
	}{{"uniform", 4, 0}, {"zipf1.5", 8, 1.5}} {
		for _, shape := range []*plan.Node{plan.Bushy(4), plan.LeftDeep(4)} {
			for seed := int64(1); seed <= seeds; seed++ {
				cfg := source.UniformConfig(4, 1, v.dmax, horizon, seed)
				for i := range cfg.Specs {
					cfg.Specs[i].Zipf = v.zipf
				}
				arrivals := source.Generate(cat, cfg)
				for _, mode := range []string{"jit", "bloom"} {
					for _, indexed := range []bool{false, true} {
						m, _ := core.ParseMode(mode)
						label := fmt.Sprintf("%s %s seed %d %s indexed=%t", v.name, shape.Canonical(), seed, mode, indexed)
						_, n := auditedRun(t, label, arrivals, shape, m, window, indexed)
						judged += n
					}
				}
			}
		}
	}
	t.Logf("%d let-go entries reached by late inputs", judged)
	if judged == 0 {
		t.Fatal("vacuous audit: no late input reached an entry the claims let go")
	}
}

// TestShadowGraveyardCliqueCell runs the audit over the drained clique_jit
// cell (jitrun -n 4 -rate 2.5 -dmax 16 -window 1 -minutes 9.4 -drain:
// bushy, linear-scan states), where the claims halve the root's graveyard.
func TestShadowGraveyardCliqueCell(t *testing.T) {
	if testing.Short() {
		t.Skip("the 9.4-minute cell takes seconds")
	}
	cat, _ := predicate.Clique(4)
	arrivals := source.Generate(cat, source.UniformConfig(4, 2.5, 16, 564*stream.Second, 1))
	r, n := auditedRun(t, "clique cell", arrivals, plan.Bushy(4), core.JIT(), stream.Minute, false)
	t.Logf("finals %d, peak %.1f KB, %d let-go entries reached by late inputs", r.Results, r.PeakMemKB, n)
	if r.Results != 1033 {
		t.Errorf("the cell delivered %d finals, want 1033", r.Results)
	}
	if n == 0 {
		t.Fatal("vacuous audit: no late input reached an entry the claims let go")
	}
}
