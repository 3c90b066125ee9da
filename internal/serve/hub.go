package serve

import (
	"fmt"
	"sync"

	"repro/internal/checkpoint"
)

// Delivery is one final result as seen by subscribers: a monotone sequence
// number (the delivery high-water mark's unit), the result timestamp, and
// the canonical result key — the record a checkpoint persists as its ring
// tail and the wire protocol renders as a delivery line.
type Delivery = checkpoint.TailEntry

// SubPolicy decides what happens when a subscriber cannot keep up with the
// delivery rate.
type SubPolicy int

const (
	// SubBlock applies backpressure: the engine's delivery blocks until
	// the slowest subscriber frees ring space, which in turn stalls ingest
	// deterministically (the bounded-memory guarantee of DESIGN.md §10).
	SubBlock SubPolicy = iota
	// SubKick disconnects a subscriber that falls a full ring behind, so
	// ingest continues at full rate; the kicked client may reconnect and
	// resume from its last seq if the ring still holds it.
	SubKick
)

func (p SubPolicy) String() string {
	if p == SubKick {
		return "kick"
	}
	return "block"
}

// ErrLagged is returned to a subscriber whose position fell out of the
// retained delivery ring (kick policy, or a resume request older than the
// ring start).
var ErrLagged = fmt.Errorf("serve: subscriber lagged beyond the retained delivery window")

// hub fans deliveries out to subscribers through one bounded ring: the ring
// IS the per-run delivery retention, so server memory for results is
// O(retain) regardless of run length or subscriber speed. The ring starts
// small and doubles, up to retain slots, only when the deliveries it holds
// fill it; every rule below — retention, lag, kick and block — goes by
// retain, as for a fixed ring of retain slots. Publish runs on the engine
// goroutine; subscriber readers run on their connection goroutines.
type hub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []Delivery // delivery i sits at ring[i%len(ring)]
	retain uint64     // the bound: deliveries kept for resuming subscribers
	next   uint64     // absolute index of the next delivery to publish
	base   uint64     // deliveries with absolute index < base left the ring
	start  uint64     // the incarnation's delivery floor (committed − restored tail)
	subs   map[*subscriber]struct{}
	policy SubPolicy
	closed bool
	eos    bool
	final  uint64 // total delivered, valid once eos
}

// hubInitialSlots is the ring's first allocation when no restored tail asks
// for more: a few hundred deliveries, well under the default bound.
const hubInitialSlots = 256

// subscriber is one attached reader's cursor into the ring.
type subscriber struct {
	pos    uint64
	kicked bool
}

// newHub builds the delivery ring for an incarnation whose committed
// delivery mark is `committed`, bounded to retain deliveries (zero means
// 16384). tail, when non-empty, re-seeds the ring with the previous
// incarnation's retained deliveries (newest last, contiguous sequence
// numbers ending at committed) so subscribers that had not read a committed
// delivery when the process died can still fetch it; entries beyond the
// bound are dropped oldest-first, exactly as live retention would have
// dropped them. The first allocation holds the tail, or hubInitialSlots when
// that is more, and never more than the bound.
func newHub(retain int, policy SubPolicy, committed uint64, tail []Delivery) *hub {
	if retain < 1 {
		retain = 1 << 14
	}
	if len(tail) > retain {
		tail = tail[len(tail)-retain:]
	}
	base := committed - uint64(len(tail))
	h := &hub{
		ring:   make([]Delivery, min(retain, max(hubInitialSlots, len(tail)))),
		retain: uint64(retain),
		next:   committed,
		base:   base,
		start:  base,
		subs:   make(map[*subscriber]struct{}),
		policy: policy,
	}
	for i, d := range tail {
		h.ring[(base+uint64(i))%uint64(len(h.ring))] = d
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// grow doubles the ring, up to the bound, laying every live delivery in the
// slot its absolute index names in the larger ring. Called under the lock
// from publish; segments, which reads without the lock, runs on the same
// goroutine as publish.
func (h *hub) grow() {
	ring := make([]Delivery, min(h.retain, 2*uint64(len(h.ring))))
	for i := h.base; i < h.next; i++ {
		ring[i%uint64(len(ring))] = h.ring[i%uint64(len(h.ring))]
	}
	h.ring = ring
}

// segments returns the live ring contents — the deliveries the hub could
// still re-send — oldest first, as the ring's own slots: one slice, or two
// when the live span wraps past the ring's end. The checkpointer persists
// them alongside the cut so the retention window survives a kill.
//
// Engine goroutine only, and without the lock: publish, the one writer of
// the slots and of base and next, runs on that goroutine too, so nothing
// changes them while the caller reads; subscribers only read slots.
func (h *hub) segments() (older, newer []Delivery) {
	n := uint64(len(h.ring))
	start, live := h.base%n, h.next-h.base
	if start+live <= n {
		return h.ring[start : start+live], nil
	}
	return h.ring[start:], h.ring[:start+live-n]
}

// publish appends one delivery, applying the overflow policy. Called from
// the engine goroutine only.
func (h *hub) publish(d Delivery) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if h.policy == SubBlock {
		for h.stalls() && !h.closed {
			h.cond.Wait()
		}
		if h.closed {
			return
		}
	}
	if live := h.next - h.base; live == uint64(len(h.ring)) && live < h.retain {
		h.grow()
	}
	h.ring[h.next%uint64(len(h.ring))] = d
	h.next++
	if h.next-h.base > h.retain {
		h.base = h.next - h.retain
	}
	if h.policy == SubKick {
		//jitlint:allow maporder marks every laggard independently; subscribers are unordered peers and no deterministic artifact sees the visit order
		for s := range h.subs {
			if s.pos < h.base {
				s.kicked = true
			}
		}
	}
	h.cond.Broadcast()
}

// stalls reports whether publishing now would take a live subscriber's
// next delivery out of the bound: the delivery about to leave it is
// h.next - retain. Under SubBlock the publisher waits while it does.
func (h *hub) stalls() bool {
	return h.next >= h.retain && h.minPos() <= h.next-h.retain
}

// minPos returns the smallest live subscriber cursor, or max-uint when no
// subscriber is attached (an empty room never blocks the engine).
func (h *hub) minPos() uint64 {
	min := ^uint64(0)
	//jitlint:allow maporder commutative min over subscriber cursors; any visit order yields the same minimum
	for s := range h.subs {
		if !s.kicked && s.pos < min {
			min = s.pos
		}
	}
	return min
}

// subscribe attaches a reader resuming after delivery seq `from`. Requests
// below the incarnation's floor — the committed mark minus the restored tail
// — clamp up to it: deliveries at or below the floor are gone for good (that
// is the greeting's resume_seq contract). Requests inside the incarnation
// but older than the retained ring fail with ErrLagged.
func (h *hub) subscribe(from uint64) (*subscriber, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	pos := from
	if pos < h.start {
		pos = h.start
	}
	if pos < h.base {
		return nil, fmt.Errorf("%w: want seq %d, ring starts at %d", ErrLagged, from+1, h.base+1)
	}
	if pos > h.next {
		pos = h.next
	}
	s := &subscriber{pos: pos}
	h.subs[s] = struct{}{}
	// A new (possibly slower) cursor changes minPos; wake a blocked
	// publisher so it re-evaluates, and wake readers idempotently.
	h.cond.Broadcast()
	return s, nil
}

// unsubscribe detaches a reader; its cursor no longer holds the ring back.
func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	delete(h.subs, s)
	h.cond.Broadcast()
	h.mu.Unlock()
}

// nextBatch blocks until a delivery is available for the subscriber, then
// takes every delivery already published, up to cap(buf) (which must be
// positive), in one lock acquisition: it returns them in buf's storage,
// oldest first. done=true
// means a clean end-of-stream (after the final delivery), err non-nil a
// kicked/lagged subscriber or an abrupt close.
func (h *hub) nextBatch(s *subscriber, buf []Delivery) (batch []Delivery, done bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if s.kicked {
			return nil, false, ErrLagged
		}
		if s.pos < h.next {
			if s.pos < h.base {
				return nil, false, ErrLagged
			}
			batch = buf[:0]
			for ; s.pos < h.next && len(batch) < cap(batch); s.pos++ {
				batch = append(batch, h.ring[s.pos%uint64(len(h.ring))])
			}
			h.cond.Broadcast() // publisher may be waiting on minPos
			return batch, false, nil
		}
		if h.closed {
			if h.eos {
				return nil, true, nil
			}
			return nil, false, fmt.Errorf("serve: server closed")
		}
		h.cond.Wait()
	}
}

// close ends the stream: eos=true is the clean drain (subscribers get a
// final eos frame), eos=false an abrupt crash-style teardown.
func (h *hub) close(eos bool, delivered uint64) {
	h.mu.Lock()
	h.closed = true
	h.eos = eos
	h.final = delivered
	h.cond.Broadcast()
	h.mu.Unlock()
}

// delivered returns the final delivery count (valid after an eos close).
func (h *hub) delivered() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.final
}
