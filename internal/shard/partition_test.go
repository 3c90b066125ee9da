package shard

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// TestDeriveKeyClique pins the worst-case derivation: every clique
// predicate is on a distinct column pair, so the closure's classes all
// cover exactly two sources and the deterministic tie-break picks the
// lexicographically smallest — A and B on their mutual columns — leaving
// the other sources to broadcast.
func TestDeriveKeyClique(t *testing.T) {
	_, conj := predicate.Clique(4)
	for _, shape := range []*plan.Node{plan.Bushy(4), plan.LeftDeep(4)} {
		k, ok := DeriveKey(conj, shape)
		if !ok {
			t.Fatalf("clique must derive a key")
		}
		if got := len(k.Cols); got != 2 {
			t.Fatalf("clique key covers %d sources (%v), want 2", got, k)
		}
		if c, ok := k.Cols[0]; !ok || c != 0 {
			t.Errorf("source A keyed on col %d (present=%v), want col 0 (x_B)", c, ok)
		}
		if c, ok := k.Cols[1]; !ok || c != 0 {
			t.Errorf("source B keyed on col %d (present=%v), want col 0 (x_A)", c, ok)
		}
	}
}

// TestDeriveKeyChain pins the best case: the chain conjunction closes into
// one class covering every source, so nothing broadcasts.
func TestDeriveKeyChain(t *testing.T) {
	cat, conj := predicate.Chain(5)
	k, ok := DeriveKey(conj, plan.LeftDeep(5))
	if !ok {
		t.Fatalf("chain must derive a key")
	}
	if got, want := len(k.Cols), cat.NumSources(); got != want {
		t.Fatalf("chain key routes %d sources, want all %d", got, want)
	}
	for id, col := range k.Cols {
		if col != 0 {
			t.Errorf("source %d keyed on col %d, want 0", id, col)
		}
	}
}

// TestDeriveKeyCrossProduct asserts the single-shard fallback: with no
// predicates, no operator has equi-key columns and no key exists.
func TestDeriveKeyCrossProduct(t *testing.T) {
	if _, ok := DeriveKey(nil, plan.Bushy(4)); ok {
		t.Fatalf("cross product derived a key")
	}
}

// TestDeriveKeyMatchesClosure cross-checks the tree-walk derivation
// against the predicate-level transitive closure: for a tree covering all
// sources every predicate crosses exactly one operator, so the per-operator
// pairs united up the tree must reproduce the closure's best class.
func TestDeriveKeyMatchesClosure(t *testing.T) {
	for n := 3; n <= 6; n++ {
		_, conj := predicate.Clique(n)
		classes := conj.EquiClosure()
		if len(classes) != n*(n-1)/2 {
			t.Fatalf("N=%d: closure has %d classes, want %d", n, len(classes), n*(n-1)/2)
		}
		for _, shape := range []*plan.Node{plan.Bushy(n), plan.LeftDeep(n)} {
			k, ok := DeriveKey(conj, shape)
			if !ok {
				t.Fatalf("N=%d: no key", n)
			}
			if len(k.Class) != len(classes[0]) {
				t.Errorf("N=%d: key class %v does not match closure class %v", n, k.Class, classes[0])
			}
			for i, a := range classes[0] {
				if k.Class[i] != a {
					t.Errorf("N=%d: key class %v != closure class %v", n, k.Class, classes[0])
					break
				}
			}
		}
	}
}

// TestRoute asserts the routing contract: keyed sources map by value —
// stably, and equal values to equal shards — while unrouted sources
// broadcast.
func TestRoute(t *testing.T) {
	_, conj := predicate.Clique(4)
	k, _ := DeriveKey(conj, plan.Bushy(4))
	a1 := &stream.Tuple{Source: 0, Vals: []stream.Value{7, 1, 2}}
	b1 := &stream.Tuple{Source: 1, Vals: []stream.Value{7, 3, 4}}
	for _, n := range []int{2, 4, 8} {
		sa, sb := k.Route(a1, n), k.Route(b1, n)
		if sa != sb {
			t.Errorf("shards=%d: equal key values routed apart (%d vs %d)", n, sa, sb)
		}
		if sa < 0 || sa >= n {
			t.Errorf("shards=%d: route %d out of range", n, sa)
		}
		if got := k.Route(a1, n); got != sa {
			t.Errorf("shards=%d: routing not stable (%d then %d)", n, sa, got)
		}
		if got := k.Route(&stream.Tuple{Source: 2, Vals: []stream.Value{7, 7, 7}}, n); got != Broadcast {
			t.Errorf("shards=%d: unrouted source got shard %d, want Broadcast", n, got)
		}
	}
}

// TestImbalance pins the load-skew metric: hottest routed share over the
// fair share, with broadcasts (ingested once per replica) excluded.
func TestImbalance(t *testing.T) {
	r := Result{
		Routed:     90,
		Broadcasts: 5,
		Shards:     []engine.Result{{Arrivals: 65}, {Arrivals: 35}},
	}
	// Routed per shard: 60 and 30; fair share 45; hot/fair = 4/3.
	if got, want := r.Imbalance(), 60.0/45.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Imbalance() = %v, want %v", got, want)
	}
	single := Result{Routed: 10, Shards: []engine.Result{{Arrivals: 10}}}
	if got := single.Imbalance(); got != 1 {
		t.Fatalf("single-replica Imbalance() = %v, want 1", got)
	}
}
