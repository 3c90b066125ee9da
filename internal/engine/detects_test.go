package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// TestEveryFeedbackModeDetects pins that a mode's machinery runs at all. For
// every PR up to 18, DOE and Bloom detected nothing — reportMNS was gated on
// the lattice's detection context, which only JIT has — and no test noticed,
// because a mode that never suspends is REF, and REF passes every equivalence
// check. On the plain drained clique each feedback mode must detect, suspend,
// and resume all it suspended; REF must do none of it.
func TestEveryFeedbackModeDetects(t *testing.T) {
	cat, conj := predicate.Clique(4)
	arrivals := source.Generate(cat, source.UniformConfig(4, 1, 20, 6*stream.Minute, 1))
	run := func(name string, window stream.Time, drain bool) engine.Result {
		mode, _ := core.ParseMode(name)
		b := plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{Window: window, Mode: mode})
		return engine.NewWithOptions(b, engine.Options{Drain: drain}).Run(arrivals)
	}
	for _, name := range []string{"jit", "doe", "bloom"} {
		if c := run(name, 2*stream.Minute, true).Counters; c.MNSDetected == 0 || c.Suspended == 0 || c.Resumed != c.Suspended {
			t.Errorf("%s: mns=%d susp=%d res=%d, want detections, suspensions, and every suspension resumed",
				name, c.MNSDetected, c.Suspended, c.Resumed)
		}
	}
	if c := run("ref", 2*stream.Minute, true).Counters; c.MNSDetected+c.Feedbacks+c.Suspended+c.Resumed+c.BloomChecks != 0 {
		t.Errorf("ref ran feedback machinery: %s", c.String())
	}

	// Bloom's filters must be queried, not only maintained. With a window as
	// long as the stream and no drain nothing is purged, so no filter is
	// rebuilt and the root's only other BloomChecks are its inserts: one per
	// crossing attribute of the stored composite — two sources a side, each
	// joined to both sources opposite. Whatever it charged beyond that was a
	// membership test during detection.
	r := run("bloom", 6*stream.Minute, false)
	root := r.Ops[len(r.Ops)-1].Counters
	if root.Purged != 0 || root.Inserted == 0 {
		t.Fatalf("bloom: root purged %d and inserted %d; the query count below needs 0 and > 0", root.Purged, root.Inserted)
	}
	if perInsert := uint64(2 * len(conj.JoinAttrs(0, stream.SourceSet(0).Add(2).Add(3)))); root.BloomChecks <= perInsert*root.Inserted {
		t.Errorf("bloom: root charged %d BloomChecks for %d inserts of %d attributes each — its filters were never queried",
			root.BloomChecks, root.Inserted, perInsert)
	}
}
