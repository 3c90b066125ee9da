package exp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/stream"
)

// TestTableIIIDefaults verifies the harness encodes the paper's Table III
// default parameters.
func TestTableIIIDefaults(t *testing.T) {
	b := Spec{}.Base(Params{})
	if b.N != 6 || !b.Bushy || b.Window != 20*stream.Minute || b.Rate != 1.0 || b.DMax != 200 {
		t.Fatalf("bushy defaults wrong: %+v", b)
	}
	l := Spec{LeftDeep: true}.Base(Params{})
	if l.N != 4 || l.Bushy || l.Window != 10*stream.Minute || l.Rate != 1.0 || l.DMax != 50 || l.LastStreamFactor != 100 {
		t.Fatalf("left-deep defaults wrong: %+v", l)
	}
}

// TestParamsAtCarriesOverlay checks that whatever the sweep-wide overlay
// sets reaches every cell, and that the figure's own base, swept value, mode
// and horizon win over it.
func TestParamsAtCarriesOverlay(t *testing.T) {
	over := Params{
		Seed: 7, Shards: 2, Zipf: 1.5, Burst: 2, BurstPeriod: stream.Minute,
		Disorder: 5 * stream.Second, Drain: true,
		// The base and the config overwrite N, Bushy, LastStreamFactor and
		// Horizon.
		Query: plan.Query{N: 99, Bushy: true, Indexed: true, Band: 1}, LastStreamFactor: 3, Horizon: 1,
	}
	spec, _ := SpecByID(14)
	got := spec.ParamsAt(Config{Scale: 1, Workload: over}, NamedMode{"REF", core.REF()}, 7.5)
	want := over
	want.N, want.Bushy, want.Rate, want.DMax, want.LastStreamFactor = 4, false, 1, 50, 100
	want.Window, want.Horizon, want.Mode = 7*stream.Minute+30*stream.Second, 5*stream.Hour, core.REF()
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("ParamsAt:\n got %+v\nwant %+v", got, want)
	}
}

func TestHorizonScaling(t *testing.T) {
	cfg := Config{Scale: 1}
	if h := cfg.horizonFor(20 * stream.Minute); h != 5*stream.Hour {
		t.Fatalf("full scale horizon: %v", h)
	}
	cfg.Scale = 0.001
	if h := cfg.horizonFor(20 * stream.Minute); h < 50*stream.Minute {
		t.Fatalf("floor not applied: %v", h)
	}
}

func TestByID(t *testing.T) {
	for id := 10; id <= 17; id++ {
		if _, ok := SpecByID(id); !ok {
			t.Fatalf("figure %d missing", id)
		}
	}
	if _, ok := SpecByID(9); ok {
		t.Fatal("phantom figure")
	}
}

// TestSmallSweepShape runs a reduced Figure-10-style sweep and verifies the
// reproduction contract at the quick preset: equal result counts everywhere
// and JIT at or below REF on cost and memory for the sweep's lower points
// (the quick preset intentionally weakens demand-rarity at the largest
// windows; the full-parameter runs recorded in EXPERIMENTS.md hold at every
// point).
func TestSmallSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	cfg := Config{Scale: 0.001, SizeScale: 0.3, Modes: DefaultModes(), Workload: Params{Seed: 1}}
	spec, _ := SpecByID(10)
	fig := spec.RunXs(cfg, []float64{10, 15, 20})
	// The quick preset weakens demand rarity (see Config.SizeScale), so JIT
	// is allowed a small bookkeeping overhead at the largest point; result
	// counts must be identical everywhere.
	for _, pt := range fig.Points {
		jit, ref := pt.Results["JIT"], pt.Results["REF"]
		if jit.Results != ref.Results {
			t.Errorf("x=%.0f: result counts differ (JIT %d, REF %d)", pt.X, jit.Results, ref.Results)
		}
		if float64(jit.CostUnits) > 1.25*float64(ref.CostUnits) {
			t.Errorf("x=%.0f: JIT cost %d far above REF %d", pt.X, jit.CostUnits, ref.CostUnits)
		}
	}
	var sb strings.Builder
	fig.Render(&sb)
	if !strings.Contains(sb.String(), "cost ratio") {
		t.Fatal("render missing ratio columns")
	}
}

// TestAblationCorrectness runs all four modes on one small configuration
// and checks they agree on the result count.
func TestAblationCorrectness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four engines")
	}
	base := Params{
		Query: plan.Query{N: 4, Bushy: true, Window: 90 * stream.Second},
		Rate:  1.0, DMax: 20,
		Horizon: 5 * stream.Minute, Seed: 5,
	}
	var counts []uint64
	for _, nm := range AblationModes() {
		p := base
		p.Mode = nm.Mode
		r := p.Run()
		counts = append(counts, r.Results)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("mode %d result count %d != %d", i, counts[i], counts[0])
		}
	}
}

// TestREFMatchesDOEWithNoEmptyStates checks that DOE only diverges from REF
// through Ø suspensions, which cannot fire once all states are populated:
// with a warm, dense workload the two cost profiles stay close.
func TestREFMatchesDOEWithNoEmptyStates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two engines")
	}
	base := Params{
		Query: plan.Query{N: 3, Bushy: false, Window: 60 * stream.Second},
		Rate:  2.0, DMax: 5,
		Horizon: 4 * stream.Minute, Seed: 3,
	}
	ref, doe := base, base
	ref.Mode, doe.Mode = core.REF(), core.DOE()
	r1, r2 := ref.Run(), doe.Run()
	if r1.Results != r2.Results {
		t.Fatalf("result counts differ: %d vs %d", r1.Results, r2.Results)
	}
}

// TestRunViewsAgree pins that Run, RunKeys and RunSharded are three views of
// one execution: at Shards 0, 1 and 2 they report the same Counters wherever
// the drain rule lets them — RunSharded always drains, the other two when
// Drain is set or Shards is above 1 — and a fleet of one is a single engine
// whichever way Shards spells it.
func TestRunViewsAgree(t *testing.T) {
	base := Params{
		Query: plan.Query{N: 4, Bushy: true, Mode: core.JIT(), Window: 90 * stream.Second},
		Rate:  1.0, DMax: 20,
		Horizon: 5 * stream.Minute, Seed: 5,
	}
	for _, drain := range []bool{false, true} {
		var single engine.Result
		for _, shards := range []int{0, 1, 2} {
			p := base
			p.Drain, p.Shards = drain, shards
			label := fmt.Sprintf("drain=%v shards=%d", drain, shards)
			run := p.Run()
			keyed, keys := p.RunKeys()
			if run.Counters != keyed.Counters || uint64(len(keys)) != run.Results {
				t.Errorf("%s: Run and RunKeys differ: %s vs %s (%d keys, %d results)",
					label, run.Counters.String(), keyed.Counters.String(), len(keys), run.Results)
			}
			sharded := p.RunSharded()
			if shards > 1 && len(sharded.Shards) != shards {
				t.Errorf("%s: RunSharded ran %d replicas", label, len(sharded.Shards))
			}
			if p.Drains() && run.Counters != sharded.Merged.Counters {
				t.Errorf("%s: Run and RunSharded differ: %s vs %s",
					label, run.Counters.String(), sharded.Merged.Counters.String())
			}
			switch shards {
			case 0:
				single = run
			case 1:
				if run.Counters != single.Counters || run.PeakMemKB != single.PeakMemKB {
					t.Errorf("%s: differs from shards=0: %s vs %s", label, run.Counters.String(), single.Counters.String())
				}
			}
			if !drain && shards < 2 {
				// RunSharded forces the drain whatever Shards says.
				p.Drain = true
				if drained := p.Run(); drained.Counters != sharded.Merged.Counters {
					t.Errorf("%s: RunSharded is not the drained run: %s vs %s",
						label, sharded.Merged.Counters.String(), drained.Counters.String())
				}
			}
		}
	}
}
