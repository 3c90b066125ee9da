package scenario

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/stream"
)

// requireEqualMultisets fails with a bounded diff when the two result
// multisets differ.
func requireEqualMultisets(t *testing.T, got, want map[string]int) {
	t.Helper()
	diffs := DiffMultisets(got, want)
	if len(diffs) == 0 {
		return
	}
	show := diffs
	if len(show) > 5 {
		show = show[:5]
	}
	t.Fatalf("result multiset differs from REF baseline (%d keys off, showing %d):\n%v",
		len(diffs), len(show), show)
}

// checkRun applies the invariants every cell must satisfy regardless of
// shard count: nothing late-dropped (every suite scenario's disorder is at
// the engine's own bound), and the result count consistent with the
// delivery log. Watermark monotonicity needs no assertion here — the
// engine's reorder stage panics the test on any regressed release.
func checkRun(t *testing.T, r engine.Result, keys []string) {
	t.Helper()
	if r.Counters.LateDropped != 0 {
		t.Fatalf("dropped %d tuples though the stream's disorder equals the bound", r.Counters.LateDropped)
	}
	if r.Results != uint64(len(keys)) {
		t.Fatalf("Results=%d but %d deliveries kept", r.Results, len(keys))
	}
}

// checkLive is the liveness invariant of the friendly (non-band) cells: a
// feedback mode detects and suspends, REF does neither. A mode whose
// machinery never runs is REF under another name and passes every
// equivalence check in this file — DOE and Bloom did, for eighteen PRs. On a
// drained run that never migrated, every suspension has also resumed (a
// migration discards the old plan's parked tuples and replays them).
//
// One friendly cell has nothing to detect: DOE reports only Ø, an input
// meeting an empty opposite state, and on a left-deep plan the state opposite
// every join-fed input is a raw source's — filled by the first arrivals and
// never empty again while the stream flows.
func checkLive(t *testing.T, sc Scenario, cell Cell, r engine.Result) {
	t.Helper()
	if sc.Band > 0 {
		return // band predicates report no signature MNS (DESIGN.md §8)
	}
	if cell.Mode.Name == "DOE" && !cell.Bushy {
		return
	}
	c := r.Counters
	switch {
	case cell.Mode.Name == "REF":
		if c.MNSDetected+c.Suspended+c.Resumed != 0 {
			t.Errorf("REF ran feedback machinery: mns=%d susp=%d res=%d", c.MNSDetected, c.Suspended, c.Resumed)
		}
	case c.MNSDetected == 0 || c.Suspended == 0 || (c.Migrations == 0 && c.Resumed != c.Suspended):
		t.Errorf("%s is not live: mns=%d susp=%d res=%d (migrations=%d)",
			cell.Mode.Name, c.MNSDetected, c.Suspended, c.Resumed, c.Migrations)
	}
}

// checkComposites is the equivalence invariant below the sink, for the
// drained, unsharded, non-adaptive cells: every operator builds exactly the
// composites REF's operator of the same plan shape builds. Finals alone do not
// see a lost pair that happened not to extend to a result. Sharded cells
// split the operators' work across replicas differently per mode, and a
// migration's replay rebuilds composites; those cells compare finals only.
func checkComposites(t *testing.T, cell Cell, r engine.Result, ref []metrics.OpCounters) {
	t.Helper()
	if cell.Shards > 1 || cell.Adapt {
		return
	}
	for i, op := range r.Ops {
		if want := ref[i].Counters.Results; op.Counters.Results != want {
			t.Errorf("%s built %d composites, REF's built %d", op.Name, op.Counters.Results, want)
		}
	}
}

// checkSharded applies the sharding invariants: arrival conservation
// (routed once, broadcasts once per replica), band predicates forcing the
// broadcast fallback, and — under Zipf — the measured partition imbalance.
func checkSharded(t *testing.T, sc Scenario, res shard.Result) {
	t.Helper()
	if sc.Band > 0 {
		// A pure band conjunction defeats equi-key derivation: the run must
		// collapse to the single-replica fallback, not silently mis-partition.
		if !res.Fallback || len(res.Shards) != 1 {
			t.Fatalf("band predicates must force the broadcast fallback; got fallback=%v shards=%d",
				res.Fallback, len(res.Shards))
		}
	} else if res.Fallback {
		t.Fatal("equi-join clique unexpectedly fell back to one replica")
	}
	var sum uint64
	for _, sh := range res.Shards {
		sum += uint64(sh.Arrivals)
	}
	want := res.Routed + uint64(len(res.Shards))*res.Broadcasts
	if sum != want {
		t.Fatalf("arrival conservation violated: per-shard sum %d, routed %d + %d shards × %d broadcasts = %d",
			sum, res.Routed, len(res.Shards), res.Broadcasts, want)
	}
	if sc.Zipf > 1 && len(res.Shards) > 1 {
		// Partition balance under skew: the hot value's shard must carry the
		// head of the Zipf mass. A balanced histogram here would mean the
		// skew never reached routing.
		imb := res.Imbalance()
		t.Logf("zipf partition balance: hot shard carries %.2f× the fair share (%d routed over %d shards)",
			imb, res.Routed, len(res.Shards))
		if imb < 1.1 {
			t.Errorf("hot shard carries %.2f× the fair share; Zipf head should exceed 1.1×", imb)
		}
	}
}

// traceCell attaches a counting tracer to every replica of the cell (a
// single run is one replica) and returns the sinks for post-run
// conservation checks.
func traceCell(p *exp.Params) *[]*obs.CountingSink {
	sinks := &[]*obs.CountingSink{}
	p.TraceFor = func(shard int) *obs.Tracer {
		s := &obs.CountingSink{}
		*sinks = append(*sinks, s)
		return obs.New(obs.Options{Sink: s, Shard: shard})
	}
	return sinks
}

// checkEventConservation asserts the trace-event stream mirrors the
// counters it instruments, under the PR 6 disorder mutators: the late-drop
// event count must equal the LateDropped counter (zero across the suite,
// whose disorder sits exactly at the engine bound — the engine's own
// disorder tests pin the nonzero case), and arrival events must equal the
// processed-arrival count.
func checkEventConservation(t *testing.T, r engine.Result, sinks []*obs.CountingSink) {
	t.Helper()
	var drops, arrivals uint64
	for _, s := range sinks {
		drops += s.Count(obs.KindLateDrop)
		arrivals += s.Count(obs.KindArrival)
	}
	if drops != r.Counters.LateDropped {
		t.Fatalf("late-drop trace events %d != LateDropped counter %d", drops, r.Counters.LateDropped)
	}
	if arrivals != uint64(r.Arrivals) {
		t.Fatalf("arrival trace events %d != processed arrivals %d", arrivals, r.Arrivals)
	}
}

// TestHostileStreamEquivalence is the harness's headline: every scenario of
// the suite, run through every cell of the execution matrix, must deliver
// exactly the REF baseline's final multiset. Multiset equality doubles as
// the exactly-once proof for cells with adaptive migration: a lost or
// duplicated delivery during a plan handoff shows up as a count mismatch.
func TestHostileStreamEquivalence(t *testing.T) {
	short := testing.Short()
	for _, sc := range Suite(short) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			base := sc.Apply(Base(short))
			ref := base
			ref.Bushy, ref.Mode, ref.Shards, ref.Adapt = true, core.REF(), 1, false
			refRes, refKeys := ref.RunKeys()
			if refRes.Results == 0 {
				t.Fatalf("degenerate scenario: REF baseline produced no finals (arrivals=%d)", refRes.Arrivals)
			}
			checkRun(t, refRes, refKeys)
			t.Logf("REF baseline: %d finals over %d arrivals", refRes.Results, refRes.Arrivals)
			want := Multiset(refKeys)
			ref.Bushy = false
			leftDeep, _ := ref.RunKeys()
			refOps := map[bool][]metrics.OpCounters{true: refRes.Ops, false: leftDeep.Ops}
			for _, cell := range Matrix(short) {
				cell := cell
				t.Run(cell.String(), func(t *testing.T) {
					t.Parallel()
					p := cell.Apply(base)
					sinks := traceCell(&p)
					if cell.Shards > 1 {
						p.KeepResults = true
						res := p.RunSharded()
						checkRun(t, res.Merged, res.ResultKeys())
						checkSharded(t, sc, res)
						checkEventConservation(t, res.Merged, *sinks)
						checkLive(t, sc, cell, res.Merged)
						requireEqualMultisets(t, Multiset(res.ResultKeys()), want)
						if m := res.Merged.Counters.Migrations; m > 0 {
							t.Logf("exactly-once held across %d migrations (%d duplicate deliveries suppressed)",
								m, res.Merged.Counters.MigrationDups)
						}
						return
					}
					r, keys := p.RunKeys()
					checkRun(t, r, keys)
					checkEventConservation(t, r, *sinks)
					checkLive(t, sc, cell, r)
					checkComposites(t, cell, r, refOps[cell.Bushy])
					requireEqualMultisets(t, Multiset(keys), want)
					if m := r.Counters.Migrations; m > 0 {
						t.Logf("exactly-once held across %d migrations (%d duplicate deliveries suppressed)",
							m, r.Counters.MigrationDups)
					}
				})
			}
		})
	}
}

// TestSeedSweepProperty is the property-style sweep: a deterministic PRNG
// draws a random topology and a random mutator stack per seed, and every
// draw must satisfy the same two properties — all four modes deliver the
// REF multiset, and a sharded run's merged counters equal the field-wise
// sum of its per-shard counters (the behavioral face of the
// TestCountersAddCoversEveryField reflection pin: a counter field that
// Add misses would diverge here, not just in structure).
func TestSeedSweepProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x59a7))
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	for i := 0; i < seeds; i++ {
		p := exp.Params{
			N:       3 + rng.Intn(2),
			Bushy:   rng.Intn(2) == 0,
			Window:  stream.Minute,
			Rate:    3,
			DMax:    60,
			Horizon: 2 * stream.Minute,
			Seed:    int64(i + 1),
			Drain:   true,
		}
		stack := ""
		if rng.Intn(2) == 0 {
			// Skew multiplies the per-predicate match probability; shrink the
			// workload so the result volume stays in the control's ballpark.
			p.Zipf = 1.5 + 0.3*rng.Float64()
			p.N, p.Rate, p.Window = 3, 0.5, 30*stream.Second
			stack += fmt.Sprintf("+zipf%.2f", p.Zipf)
		}
		if rng.Intn(2) == 0 {
			p.Burst = 2 + 2*rng.Float64()
			p.BurstPeriod = 20 * stream.Second
			stack += fmt.Sprintf("+burst%.1f", p.Burst)
		}
		if rng.Intn(2) == 0 {
			p.Disorder = stream.Time(1+rng.Intn(10)) * stream.Second
			stack += fmt.Sprintf("+disorder%v", p.Disorder)
		}
		if rng.Intn(2) == 0 {
			p.Band = stream.Value(1 + rng.Intn(2))
			p.DMax *= 2*int64(p.Band) + 1 // keep per-predicate selectivity level
			stack += fmt.Sprintf("+band%d", p.Band)
		}
		if stack == "" {
			stack = "+none"
		}
		topo := "leftdeep"
		if p.Bushy {
			topo = "bushy"
		}
		t.Run(fmt.Sprintf("seed=%d/N=%d/%s%s", p.Seed, p.N, topo, stack), func(t *testing.T) {
			ref := p
			ref.Mode = core.REF()
			refRes, refKeys := ref.RunKeys()
			checkRun(t, refRes, refKeys)
			want := Multiset(refKeys)
			for _, nm := range exp.AblationModes() {
				if nm.Name == "REF" {
					continue
				}
				q := p
				q.Mode = nm.Mode
				r, keys := q.RunKeys()
				checkRun(t, r, keys)
				if diffs := DiffMultisets(Multiset(keys), want); len(diffs) > 0 {
					t.Fatalf("%s diverges from REF on %d keys: %v", nm.Name, len(diffs), diffs[0])
				}
			}
			s := p
			s.Mode, s.Shards, s.KeepResults = core.JIT(), 3, true
			res := s.RunSharded()
			if diffs := DiffMultisets(Multiset(res.ResultKeys()), want); len(diffs) > 0 {
				t.Fatalf("sharded JIT diverges from REF on %d keys: %v", len(diffs), diffs[0])
			}
			var sum metrics.Counters
			sv := reflect.ValueOf(&sum).Elem()
			for _, sh := range res.Shards {
				cv := reflect.ValueOf(sh.Counters)
				for f := 0; f < cv.NumField(); f++ {
					sv.Field(f).SetUint(sv.Field(f).Uint() + cv.Field(f).Uint())
				}
			}
			if sum != res.Merged.Counters {
				t.Fatalf("merged counters are not the field-wise per-shard sum:\nmerged: %+v\nsum:    %+v",
					res.Merged.Counters, sum)
			}
		})
	}
}
