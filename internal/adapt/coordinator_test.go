package adapt_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/plan"
)

// round is what one replica got back from Coordinator.Exchange.
type round struct {
	target string
	sums   map[string]uint64
	wins   int
}

// exchange runs one barrier round: replica i reports observed[i] and
// scores[i] from its own goroutine, as the shard runner's replicas do.
func exchange(c *adapt.Coordinator, observed []uint64, scores []map[string]uint64) []round {
	out := make([]round, len(observed))
	var wg sync.WaitGroup
	for i := range observed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			target, sums, wins := c.Exchange(observed[i], scores[i])
			out[i] = round{sums: sums, wins: wins}
			if target != nil {
				out[i].target = target.Canonical()
			}
		}()
	}
	wg.Wait()
	return out
}

// TestCoordinatorStreakRules pins the fleet's streak bookkeeping: every
// replica of a round gets the same (target, sums, wins); a partially scored
// round of a busy fleet leaves an open streak alone; a round in which the
// whole fleet is near-idle closes it — which, for a fleet of one, is the solo
// controller's idle epoch.
func TestCoordinatorStreakRules(t *testing.T) {
	bushy, deep := plan.Bushy(4).Canonical(), plan.LeftDeep(4).Canonical()
	// Left-deep beats the running bushy shape by far more than the margin.
	win := func(scale uint64) map[string]uint64 {
		return map[string]uint64{bushy: 1000 * scale, deep: 10 * scale}
	}
	c := adapt.NewCoordinator(2, plan.Bushy(4), 4, adapt.Config{Patience: 3})
	busy := []uint64{50_000, 70_000}

	got := exchange(c, busy, []map[string]uint64{win(1), win(2)})
	want := round{sums: map[string]uint64{bushy: 3000, deep: 30}, wins: 1}
	for i, r := range got {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("replica %d got %+v, want %+v", i, r, want)
		}
	}
	if !c.StreakOpen() {
		t.Fatal("a winning round left no streak open")
	}

	got = exchange(c, busy, []map[string]uint64{win(1), nil})
	if got[0].wins != 0 || got[0].target != "" || !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("partial round decided something: %+v", got)
	}
	if !c.StreakOpen() {
		t.Fatal("a partially scored round of a busy fleet closed the streak")
	}

	if got = exchange(c, busy, []map[string]uint64{win(1), win(1)}); got[0].wins != 2 {
		t.Fatalf("the streak did not resume across the partial round: %+v", got)
	}
	exchange(c, []uint64{300, 200}, []map[string]uint64{nil, nil})
	if c.StreakOpen() {
		t.Fatal("a near-idle fleet round left the streak open")
	}

	// The streak starts over, and Patience wins in a row fire for everyone.
	for wins := 1; wins <= 3; wins++ {
		got = exchange(c, busy, []map[string]uint64{win(1), win(1)})
		if got[0].wins != wins || !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("round %d after the reset: %+v", wins, got)
		}
	}
	if got[0].target != deep || c.StreakOpen() {
		t.Fatalf("patience reached without a migration to %s: %+v", deep, got)
	}
}
