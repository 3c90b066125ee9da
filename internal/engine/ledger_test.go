package engine_test

import (
	"reflect"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/shard"
	"repro/internal/source"
	"repro/internal/stream"
)

// opOwned returns c without the fields no operator charges — they live in the
// plan's run ledger (plan.Built.RunLedger). What is left of a run ledger is
// what retired operators folded into it: nothing, on a run that never
// migrated.
func opOwned(c metrics.Counters) metrics.Counters {
	c.FinalResults, c.Sweeps, c.Migrations, c.AdaptUnits, c.MigrationDups, c.LateDropped = 0, 0, 0, 0, 0, 0
	return c
}

func sumOps(ops []metrics.OpCounters) metrics.Counters {
	var sum metrics.Counters
	for i := range ops {
		sum.Add(&ops[i].Counters)
	}
	return sum
}

// sameCounters compares field by field, so a failure names the counters that
// moved instead of printing two twenty-field structs.
func sameCounters(t *testing.T, label string, got, want metrics.Counters) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Uint(), wv.Field(i).Uint(); g != w {
			t.Errorf("%s: %s = %d, want %d", label, gv.Type().Field(i).Name, g, w)
		}
	}
}

// retiring wraps a re-optimizer to record the ledgers of the operators each
// migration retires, read just before the handoff, and the plan object each
// migration hands back.
type retiring struct {
	engine.Reoptimizer
	retired  metrics.Counters
	reshaped []*plan.Built
}

func (r *retiring) Migrate(cut stream.Time, b *plan.Built) *plan.Built {
	ops := sumOps(b.Ops())
	nb := r.Reoptimizer.Migrate(cut, b)
	if nb != nil {
		r.retired.Add(&ops)
		r.reshaped = append(r.reshaped, nb)
	}
	return nb
}

// migratedPeakKB is Result.PeakMemKB of the forced-migration run below, by
// mode and initial shape, as the former two-plan handoff recorded it (two
// accounts: Alloc(oldLive) on the new one for the replay, Free, then the old
// peak absorbed). One account with one FreeAll(oldLive) after the replay must
// reproduce it to the byte. The two jit rows were re-recorded from that same
// handoff with the rest rule of DESIGN.md §4 applied to it (expired recovery
// inputs now occupy the graveyard: +240 and +3 840 bytes), and the two
// left-deep feedback rows again when the graveyard's floor became the
// timestamp of what is owed rather than its MinTS (1 592 408 and 834 280
// bytes before). The bushy jit row moved once more when Type II marks stopped
// being relayed to the producer one level up: the left-deep plan it migrates
// to no longer holds relay descriptors (1 251 248 bytes before). The two
// left-deep feedback rows moved once more when the blacklist's term of that
// floor became the parked tuples' own timestamps rather than the oldest MinTS
// among them and the partners they owe (1 312 568 and 802 360 bytes before).
// Three feedback rows moved down when the root's floor began to honour the
// claims of the MNSs it detected (913 528, 1 272 752 and 800 344 bytes
// before), and the same three again when every operator's floor went by the
// values a deferred item fixes on the crossing equi-key (1 247 144, 1 268 432
// and 667 768 bytes before). The left-deep jit row rose 240 bytes when Type
// II suppression became a value test at each joining pair, whose unmark
// re-defers by value what the mark ids let it build at once (797 744 bytes
// before).
var migratedPeakKB = map[string]float64{
	"ref ((0 1) (2 3))":   650760.0 / 1024,
	"jit ((0 1) (2 3))":   980528.0 / 1024,
	"doe ((0 1) (2 3))":   647040.0 / 1024,
	"bloom ((0 1) (2 3))": 643264.0 / 1024,
	"ref (((0 1) 2) 3)":   648936.0 / 1024,
	"jit (((0 1) 2) 3)":   797984.0 / 1024,
	"doe (((0 1) 2) 3)":   647040.0 / 1024,
	"bloom (((0 1) 2) 3)": 599808.0 / 1024,
}

// TestPlanTotalsAreOperatorSums pins the one-ledger contract: a run's
// plan-wide Counters are its run ledger plus the ledgers of the operators live
// at its end (Result.Ops), on every field — single engine, across a forced
// migration under a lossy reorder stage (the plan object is reshaped in place,
// the retired operators' work is folded into its run ledger once, Migrations,
// MigrationDups and LateDropped keep counting into it through the handoff, and
// the accounted peak is what it always was, its memory split keeping the new
// tree's operators apart from the retired tree's), and across a 4-shard merge.
func TestPlanTotalsAreOperatorSums(t *testing.T) {
	cat, conj := predicate.Clique(4)
	cfg := source.UniformConfig(4, 1, 20, 6*stream.Minute, 1)
	arrivals := source.Generate(cat, cfg)
	cfg.Disorder = 20 * stream.Second
	perturbed := source.Generate(cat, cfg)
	for _, shape := range []*plan.Node{plan.Bushy(4), plan.LeftDeep(4)} {
		for _, name := range []string{"ref", "jit", "doe", "bloom"} {
			mode, _ := core.ParseMode(name)
			build := func() *plan.Built {
				return plan.BuildTree(cat, conj, shape, plan.Options{Window: 2 * stream.Minute, Mode: mode})
			}
			label := name + " " + shape.Canonical()

			b := build()
			r := engine.NewWithOptions(b, engine.Options{Drain: true}).Run(arrivals)
			want := sumOps(r.Ops)
			want.Add(b.RunLedger)
			sameCounters(t, label, r.Counters, want)
			sameCounters(t, label+" run ledger", opOwned(*b.RunLedger), metrics.Counters{})
			if b.RunLedger.FinalResults != r.Results || r.Counters.Probes == 0 {
				t.Errorf("%s: degenerate run or sink not in the run ledger: %s", label, r.Counters.String())
			}

			// One forced migration to the other shape, fed out of order beyond
			// the engine's bound so the reorder stage drops tuples on both
			// sides of the handoff.
			target := plan.LeftDeep(4)
			if shape.Canonical() == target.Canonical() {
				target = plan.Bushy(4)
			}
			b = build()
			ctrl := &retiring{Reoptimizer: adapt.New(adapt.Config{ForceAt: 3 * stream.Minute, ForceTo: target})}
			r = engine.NewWithOptions(b, engine.Options{Drain: true, Reopt: ctrl, Disorder: 15 * stream.Second}).Run(perturbed)
			if len(ctrl.reshaped) != 1 || ctrl.reshaped[0] != b || b.Shape().Canonical() != target.Canonical() {
				t.Fatalf("%s: want one migration reshaping the run's own plan to %s; got %d, plan now %s",
					label, target.Canonical(), len(ctrl.reshaped), b.Shape().Canonical())
			}
			if r.PeakMemKB != migratedPeakKB[label] {
				t.Errorf("%s: PeakMemKB = %v, want %v", label, r.PeakMemKB, migratedPeakKB[label])
			}
			samePeakSplit(t, label, r)
			if got, want := opNames(r.PeakOps), []string{"Op1", "Op2", "Op3", "Op1.1", "Op2.1", "Op3.1"}; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: operator memory rows %v, want %v: the reshaped tree's apart from the retired one's", label, got, want)
			}
			label += " migrated"
			want = sumOps(r.Ops)
			want.Add(b.RunLedger)
			sameCounters(t, label, r.Counters, want)
			sameCounters(t, label+" run ledger", opOwned(*b.RunLedger), ctrl.retired)
			if l := b.RunLedger; l.Migrations != 1 || l.MigrationDups == 0 || l.FinalResults != r.Results ||
				l.LateDropped == 0 || int(l.LateDropped)+r.Arrivals != len(perturbed) {
				t.Errorf("%s: run-owned counters did not survive the handoff: %s (results=%d arrivals=%d of %d)",
					label, l.String(), r.Results, r.Arrivals, len(perturbed))
			}

			// A 4-shard merge adds the replicas' totals and, by name, their
			// operators; what the merged operators leave unexplained is the sum
			// of the replicas' run ledgers.
			s := shard.New(build(), shard.Options{Shards: 4, Engine: engine.Options{Drain: true}}).Run(arrivals)
			label = name + " " + shape.Canonical() + " sharded"
			var totals, ledgers metrics.Counters
			var ops []metrics.OpCounters
			for _, sr := range s.Shards {
				totals.Add(&sr.Counters)
				l := sr.Counters.Sub(sumOps(sr.Ops))
				ledgers.Add(&l)
				ops = metrics.MergeOps(ops, sr.Ops)
			}
			if len(s.Shards) != 4 || !reflect.DeepEqual(s.Merged.Ops, ops) {
				t.Errorf("%s: %d shards, merged operators %+v, want %+v", label, len(s.Shards), s.Merged.Ops, ops)
			}
			sameCounters(t, label, s.Merged.Counters, totals)
			samePeakSplit(t, label, s.Merged)
			sameCounters(t, label+" run ledgers", s.Merged.Counters.Sub(sumOps(s.Merged.Ops)), ledgers)
			sameCounters(t, label+" run ledgers", opOwned(ledgers), metrics.Counters{})
		}
	}
}

// opNames lists the operators of a memory split.
func opNames(ops []metrics.OpMem) []string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name
	}
	return names
}

// samePeakSplit checks that a result's peak split by structure adds up to its
// peak, and its split by operator to the split by structure: the memory
// ledger accounts for every byte the peak does, and each to an operator.
func samePeakSplit(t *testing.T, label string, r engine.Result) {
	t.Helper()
	var sum int64
	for _, n := range r.PeakMem {
		sum += n
	}
	if float64(sum)/1024 != r.PeakMemKB {
		t.Errorf("%s: peak split %v sums to %d B, peak is %.1f KB", label, r.PeakMem, sum, r.PeakMemKB)
	}
	var ops metrics.MemLedger
	for _, op := range r.PeakOps {
		ops.Add(op.Mem)
	}
	if ops != r.PeakMem || len(r.PeakOps) == 0 {
		t.Errorf("%s: %d operators' peak splits sum to %v, the peak's split is %v", label, len(r.PeakOps), ops, r.PeakMem)
	}
}
