package minheap

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHeapAgainstSort interleaves random pushes and pops and checks every
// popped item against a sorted reference. Items tie on their key, so the
// heap's order must come from Less alone.
func TestHeapAgainstSort(t *testing.T) {
	type item struct{ key, id int }
	less := func(a, b item) bool { return a.key < b.key || (a.key == b.key && a.id < b.id) }
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		h := Heap[item]{Less: less}
		var ref []item
		for op := 0; op < 100; op++ {
			if len(ref) == 0 || rng.Intn(3) > 0 {
				it := item{key: rng.Intn(8), id: op}
				h.Push(it)
				ref = append(ref, it)
				sort.Slice(ref, func(i, j int) bool { return less(ref[i], ref[j]) })
				continue
			}
			if h.Len() != len(ref) || h.Min() != ref[0] {
				t.Fatalf("round %d op %d: Len/Min = %d/%v, want %d/%v", round, op, h.Len(), h.Min(), len(ref), ref[0])
			}
			if got := h.Pop(); got != ref[0] {
				t.Fatalf("round %d op %d: Pop = %v, want %v", round, op, got, ref[0])
			}
			ref = ref[1:]
		}
	}
}
