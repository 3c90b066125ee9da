// Package minheap is the one binary min-heap of the repository: the engine's
// reorder buffer and the workload generator's jitter buffer both order their
// items through it. Every caller supplies a total order, so pop order is
// independent of the sift implementation.
package minheap

// Heap is a binary min-heap over T ordered by Less. The zero value with Less
// set is an empty heap.
type Heap[T any] struct {
	Less  func(a, b T) bool
	items []T
}

// Len returns the number of items held.
func (h *Heap[T]) Len() int { return len(h.items) }

// Min returns the smallest item without removing it; the heap must be
// non-empty.
func (h *Heap[T]) Min() T { return h.items[0] }

// Push inserts x, sifting up.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	for i := len(h.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.Less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

// Pop removes and returns the smallest item, sifting down; the heap must be
// non-empty.
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // drop the reference for the collector
	h.items = h.items[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.Less(h.items[l], h.items[m]) {
			m = l
		}
		if r < last && h.Less(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			return top
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}
