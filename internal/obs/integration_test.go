package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

var update = flag.Bool("update", false, "rewrite golden files")

var allModes = []struct {
	name string
	mode core.Mode
}{
	{"JIT", core.JIT()},
	{"REF", core.REF()},
	{"DOE", core.DOE()},
	{"Bloom", core.BloomJIT()},
}

// TestTracingTransparency is the tentpole's core contract: attaching a
// tracer — events, sampler and latency accounting all on — changes NOTHING
// the engine measures. Byte-identical Counters in all four modes, on both
// the plain drained path and the disordered path (which exercises the
// watermark/late-drop instrumentation).
func TestTracingTransparency(t *testing.T) {
	cat, conj := predicate.Clique(4)
	cfg := source.UniformConfig(4, 4.0, 60, 2*stream.Minute, 1)
	inOrder := source.Generate(cat, cfg)
	cfg.Disorder = 20 * stream.Second
	perturbed := source.Generate(cat, cfg)

	build := func(mode core.Mode) *plan.Built {
		return plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{
			Window: stream.Minute, Mode: mode,
		})
	}
	variants := []struct {
		name     string
		arrivals []*stream.Tuple
		opts     engine.Options
	}{
		{"drained", inOrder, engine.Options{Drain: true}},
		{"disordered", perturbed, engine.Options{Drain: true, Disorder: 2 * stream.Second}},
	}
	for _, m := range allModes {
		for _, v := range variants {
			t.Run(m.name+"/"+v.name, func(t *testing.T) {
				plain := build(m.mode)
				want := engine.NewWithOptions(plain, v.opts).Run(v.arrivals)

				traced := build(m.mode)
				var sink obs.CountingSink
				tr := obs.New(obs.Options{Sink: &sink, SampleEvery: 10 * stream.Second})
				traced.SetTrace(tr)
				got := engine.NewWithOptions(traced, v.opts).Run(v.arrivals)

				if got.Counters != want.Counters {
					t.Fatalf("tracing perturbed the counters:\n  traced: %s\n  plain:  %s",
						got.Counters.String(), want.Counters.String())
				}
				if got.Results != want.Results || got.CostUnits != want.CostUnits {
					t.Fatalf("tracing perturbed results/cost: %d/%d vs %d/%d",
						got.Results, got.CostUnits, want.Results, want.CostUnits)
				}
				if sink.Total() == 0 {
					t.Fatal("tracer emitted nothing — the transparency check has no teeth")
				}
				// The event stream must conserve against the counters it mirrors.
				if sink.Count(obs.KindArrival) != uint64(got.Arrivals) {
					t.Errorf("arrival events %d != arrivals %d", sink.Count(obs.KindArrival), got.Arrivals)
				}
				if sink.Count(obs.KindLateDrop) != got.Counters.LateDropped {
					t.Errorf("late-drop events %d != LateDropped %d", sink.Count(obs.KindLateDrop), got.Counters.LateDropped)
				}
				if sink.Count(obs.KindProbeBatch) != got.Counters.Probes {
					t.Errorf("probe events %d != Probes %d", sink.Count(obs.KindProbeBatch), got.Counters.Probes)
				}
				if sink.Count(obs.KindMNSDetect) == 0 != (got.Counters.MNSDetected == 0) {
					t.Errorf("MNS events/counter disagree on zero-ness")
				}
				if len(tr.Samples()) == 0 {
					t.Error("sampler took no samples")
				}
			})
		}
	}
}

// TestDeliveryLatency checks the latency accounting end to end: the
// histogram must see exactly one observation per final result, and an
// in-order drained run must measure them all as LIVE deliveries (zero
// event-time lag — a final is emitted at the very arrival that completes
// it, JIT's suspension notwithstanding). The nonzero path — a delivery
// after the clock moved past the result's timestamp — is pinned at the
// unit level in TestTracerDeliveryLag.
func TestDeliveryLatency(t *testing.T) {
	cat, conj := predicate.Clique(3)
	cfg := source.UniformConfig(3, 4.0, 20, 2*stream.Minute, 1)
	b := plan.BuildTree(cat, conj, plan.Bushy(3), plan.Options{
		Window: stream.Minute, Mode: core.JIT(),
	})
	tr := obs.New(obs.Options{})
	b.SetTrace(tr)
	r := engine.NewWithOptions(b, engine.Options{Drain: true}).Run(source.Generate(cat, cfg))
	if r.Results == 0 {
		t.Fatal("workload delivered no finals — latency test has no teeth")
	}
	h := tr.Latency()
	if h.Count != uint64(r.Results) {
		t.Fatalf("latency observations %d != final results %d", h.Count, r.Results)
	}
	if h.Max != 0 || h.Buckets[0] != h.Count {
		t.Errorf("in-order drained run must deliver every final live: max=%d, %d/%d in bucket 0",
			h.Max, h.Buckets[0], h.Count)
	}
}

// TestChromeMigrationGolden is the acceptance criterion's trace check: a
// forced bushy→left-deep migration exports Chrome-trace JSON in which the
// migration start/cut/done triple sits between epoch-boundary events, and
// the bytes match the committed golden (the determinism proof —
// regenerate with `go test ./internal/obs -run ChromeMigration -update`).
func TestChromeMigrationGolden(t *testing.T) {
	cat, conj := predicate.Clique(4)
	cfg := source.UniformConfig(4, 3.0, 30, 225*stream.Second+1, 1)
	b := plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{
		Window: 90 * stream.Second, Mode: core.JIT(),
	})
	rec := obs.NewRecorder(0)
	b.SetTrace(obs.New(obs.Options{Sink: rec}))
	ctrl := adapt.New(adapt.Config{
		Epoch:   30 * stream.Second,
		Margin:  1e9, // policy can never win — only the forced migration fires
		ForceAt: 112 * stream.Second,
		ForceTo: plan.LeftDeep(4),
	})
	r := engine.NewWithOptions(b, engine.Options{Drain: true, Reopt: ctrl}).Run(source.Generate(cat, cfg))
	if r.Counters.Migrations != 1 {
		t.Fatalf("%d migrations, want exactly the forced one", r.Counters.Migrations)
	}

	// The golden holds the epoch boundaries and the migration triple only.
	var events []obs.Event
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.KindEpoch, obs.KindMigrationStart, obs.KindMigrationCut, obs.KindMigrationDone:
			events = append(events, e)
		}
	}

	// Structural check: one start→cut→done run, epochs on both sides.
	idx := map[obs.Kind][]int{}
	for i, e := range events {
		idx[e.Kind] = append(idx[e.Kind], i)
	}
	for _, k := range []obs.Kind{obs.KindMigrationStart, obs.KindMigrationCut, obs.KindMigrationDone} {
		if len(idx[k]) != 1 {
			t.Fatalf("%d %s events, want 1", len(idx[k]), k)
		}
	}
	start, cut, done := idx[obs.KindMigrationStart][0], idx[obs.KindMigrationCut][0], idx[obs.KindMigrationDone][0]
	if !(start < cut && cut < done) {
		t.Fatalf("migration events out of order: start=%d cut=%d done=%d", start, cut, done)
	}
	epochs := idx[obs.KindEpoch]
	if len(epochs) < 2 {
		t.Fatalf("%d epoch events — need boundaries on both sides of the migration", len(epochs))
	}
	if first, last := epochs[0], epochs[len(epochs)-1]; !(first < start && done < last) {
		t.Fatalf("migration triple not bracketed by epochs: epoch[%d..%d], start=%d done=%d",
			first, last, start, done)
	}

	golden := filepath.Join("testdata", "migration_trace.golden")
	got := obs.ChromeTrace(events)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chrome trace diverged from golden (%d vs %d bytes); if the event\n"+
			"taxonomy or workload changed intentionally, regenerate with -update", len(got), len(want))
	}
}
