package adapt

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// epochProbe checks the dedup gate at every epoch close: closeEpoch prunes
// before it emits the epoch event.
type epochProbe func()

func (p epochProbe) Emit(e obs.Event) {
	if e.Kind == obs.KindEpoch {
		p()
	}
}

// TestGateHoldsOnlyTheWindow runs a twelve-window adaptive run with a forced
// mid-run migration, solo and as a fleet replica closing its epochs at
// barriers, and checks at every epoch close that the dedup gate holds
// exactly the deliveries whose oldest constituent is still in window at the
// last arrival — not every final of the run. The finals must still be the
// static plan's, each once.
func TestGateHoldsOnlyTheWindow(t *testing.T) {
	const window = 30 * stream.Second
	cat, conj := predicate.Clique(4)
	arrivals := source.Generate(cat, source.UniformConfig(4, 3.0, 12, 12*window, 1))
	build := func() *plan.Built {
		return plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{Window: window, Mode: core.JIT(), KeepResults: true})
	}
	static := build()
	engine.NewWithOptions(static, engine.Options{Drain: true}).Run(arrivals)
	want := static.Sink.ResultKeys()
	slices.Sort(want)

	for _, fleet := range []bool{false, true} {
		cfg := Config{Epoch: window, ForceAt: 5*window + window/3, ForceTo: plan.LeftDeep(4)}
		b := build()
		ctrl := New(cfg)
		if fleet {
			ctrl = NewCoordinated(cfg, NewCoordinator(1, b.Shape(), 4, cfg))
		}
		// The number of delivered keys the gate holds: a prune at cut 0
		// drops nothing and reports every key.
		held := func() int {
			n := 0
			ctrl.gate.Prune(0, window, func(string, stream.Time) { n++ })
			return n
		}
		epochs, peak := 0, 0
		b.SetTrace(obs.New(obs.Options{Sink: epochProbe(func() {
			epochs++
			inWindow := 0
			for _, c := range b.Sink.Results() {
				if c.MinTS+window > ctrl.lastTS {
					inWindow++
				}
			}
			if n := held(); n != inWindow {
				t.Errorf("fleet=%v epoch at t=%v: gate holds %d keys, %d deliveries still in window (of %d)",
					fleet, ctrl.lastTS, n, inWindow, len(b.Sink.Results()))
			}
			peak = max(peak, held())
		})}))
		var barrier stream.EpochClock
		if fleet {
			barrier.Period = window
		}
		i := 0
		res := engine.NewWithOptions(b, engine.Options{Drain: true, Reopt: ctrl}).RunStream(func() (*stream.Tuple, bool) {
			if i == len(arrivals) {
				if fleet {
					ctrl.Leave()
				}
				return nil, false
			}
			t := arrivals[i]
			i++
			if barrier.Period > 0 && barrier.Due(t.TS) {
				ctrl.AtBarrier(t.TS)
				barrier.Advance(t.TS)
			}
			return t, true
		})
		if res.Counters.Migrations != 1 || res.Counters.MigrationDups == 0 {
			t.Fatalf("fleet=%v: %d migrations absorbing %d dups, want the forced one absorbing some",
				fleet, res.Counters.Migrations, res.Counters.MigrationDups)
		}
		if epochs < 10 || 3*peak > len(want) {
			t.Errorf("fleet=%v: %d epoch closes, gate peaked at %d keys against %d finals", fleet, epochs, peak, len(want))
		}
		got := b.Sink.ResultKeys()
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("fleet=%v: %d finals, the static plan delivers %d", fleet, len(got), len(want))
		}
		t.Logf("fleet=%v: %d epochs, gate peak %d of %d finals, %d dups absorbed",
			fleet, epochs, peak, len(want), res.Counters.MigrationDups)
	}
}

// unpruned is a solo controller whose gate is never pruned: it holds the
// prune cut at 0, where no delivery has left the window.
type unpruned struct{ *Controller }

func (u unpruned) Decide(t *stream.Tuple, b *plan.Built) bool {
	due := u.Controller.Decide(t, b)
	u.lastTS = 0
	return due
}

// TestPrunedGateAbsorbsEveryRegeneration runs solo adaptive JIT runs over
// several seeds, epoch lengths and forced-migration phases, so that epoch
// closes land just after the sweeps of results a migration replay rebuilt.
// With the gate pruned the finals must be the static plan's, each once, and
// the gate must absorb exactly the regenerations it absorbs never pruned: a
// prune at a cut whose sweeps have not fired yet lets a rebuilt copy of an
// earlier delivery through a second time.
func TestPrunedGateAbsorbsEveryRegeneration(t *testing.T) {
	const window = 30 * stream.Second
	cat, conj := predicate.Clique(4)
	absorbed, seeds := uint64(0), int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		arrivals := source.Generate(cat, source.UniformConfig(4, 3.0, 12, 6*window, seed))
		build := func() *plan.Built {
			return plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{Window: window, Mode: core.JIT(), KeepResults: true})
		}
		static := build()
		engine.NewWithOptions(static, engine.Options{Drain: true}).Run(arrivals)
		want := static.Sink.ResultKeys()
		slices.Sort(want)
		for _, epoch := range []stream.Time{window / 4, window / 3} {
			for phase := range 4 {
				cfg := Config{Epoch: epoch, ForceAt: 3*window + stream.Time(phase)*window/7, ForceTo: plan.LeftDeep(4)}
				run := func(r engine.Reoptimizer) (*plan.Built, engine.Result) {
					b := build()
					return b, engine.NewWithOptions(b, engine.Options{Drain: true, Reopt: r}).Run(arrivals)
				}
				b, res := run(New(cfg))
				_, ref := run(unpruned{New(cfg)})
				name := fmt.Sprintf("seed %d epoch %v force at %v", seed, epoch, cfg.ForceAt)
				if res.Counters.Migrations == 0 {
					t.Fatalf("%s: no migration, want the forced one", name)
				}
				absorbed += ref.Counters.MigrationDups
				got := b.Sink.ResultKeys()
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("%s: %d finals, the static plan delivers %d", name, len(got), len(want))
				}
				if res.Counters.MigrationDups != ref.Counters.MigrationDups {
					t.Errorf("%s: pruned gate absorbed %d regenerations, unpruned %d",
						name, res.Counters.MigrationDups, ref.Counters.MigrationDups)
				}
			}
		}
	}
	if absorbed == 0 {
		t.Fatal("no migration rebuilt a delivered result: the runs test nothing")
	}
	t.Logf("%d regenerations absorbed over all runs", absorbed)
}
