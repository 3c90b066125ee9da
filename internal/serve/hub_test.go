package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/stream"
)

// fixedRing is the delivery ring as a fixed array of retain slots, single
// threaded: the reference a growing hub must agree with. Its rules are the
// hub's, with the slice length standing for the bound everywhere.
type fixedRing struct {
	ring              []Delivery
	next, base, start uint64
	policy            SubPolicy
	pos               map[int]uint64
	kicked            map[int]bool
	closed, eos       bool
}

func newFixedRing(retain int, policy SubPolicy, committed uint64, tail []Delivery) *fixedRing {
	if len(tail) > retain {
		tail = tail[len(tail)-retain:]
	}
	base := committed - uint64(len(tail))
	r := &fixedRing{ring: make([]Delivery, retain), next: committed, base: base, start: base,
		policy: policy, pos: map[int]uint64{}, kicked: map[int]bool{}}
	for i, d := range tail {
		r.ring[(base+uint64(i))%uint64(retain)] = d
	}
	return r
}

// blocks reports whether a SubBlock publish would wait for a subscriber.
func (r *fixedRing) blocks() bool {
	n := uint64(len(r.ring))
	if r.policy != SubBlock || r.closed || r.next < n {
		return false
	}
	for id, p := range r.pos {
		if !r.kicked[id] && p <= r.next-n {
			return true
		}
	}
	return false
}

func (r *fixedRing) publish(d Delivery) {
	if r.closed {
		return
	}
	n := uint64(len(r.ring))
	r.ring[r.next%n] = d
	r.next++
	if r.next-r.base > n {
		r.base = r.next - n
	}
	if r.policy == SubKick {
		for id, p := range r.pos {
			if p < r.base {
				r.kicked[id] = true
			}
		}
	}
}

func (r *fixedRing) subscribe(id int, from uint64) error {
	pos := max(from, r.start)
	if pos < r.base {
		return ErrLagged
	}
	r.pos[id] = min(pos, r.next)
	return nil
}

// waits reports whether nextBatch would wait for a publication.
func (r *fixedRing) waits(id int) bool {
	return !r.kicked[id] && r.pos[id] >= r.next && !r.closed
}

func (r *fixedRing) nextBatch(id int, capacity int) (batch []Delivery, done bool, err error) {
	p := r.pos[id]
	switch {
	case r.kicked[id]:
		return nil, false, ErrLagged
	case p < r.next && p < r.base:
		return nil, false, ErrLagged
	case p < r.next:
		for ; p < r.next && len(batch) < capacity; p++ {
			batch = append(batch, r.ring[p%uint64(len(r.ring))])
		}
		r.pos[id] = p
		return batch, false, nil
	case r.eos:
		return nil, true, nil
	}
	return nil, false, errors.New("closed")
}

// live is the retained deliveries, oldest first.
func (r *fixedRing) live() []Delivery {
	var out []Delivery
	for i := r.base; i < r.next; i++ {
		out = append(out, r.ring[i%uint64(len(r.ring))])
	}
	return out
}

// TestHubMatchesFixedRing drives a hub, whose ring grows to its bound, and a
// fixed ring of the bound's slots through the same random publications,
// subscriptions, batched reads, unsubscriptions, segment reads and close,
// under both policies: bounds of 1, a few, the initial capacity and beyond
// it, each restored from checkpoint tails shorter than, as long as and
// longer than the initial capacity and the bound. Batches, errors, the
// ring's base and next and the live segments must agree at every step. A
// publication the reference would block on, or a read it would wait on, is
// not made.
func TestHubMatchesFixedRing(t *testing.T) {
	const committed = 5000
	for _, retain := range []int{1, 3, hubInitialSlots, 2*hubInitialSlots + 5, 8 * hubInitialSlots} {
		tails := []int{0, 1, hubInitialSlots - 1, hubInitialSlots, hubInitialSlots + 1, retain - 1, retain, retain + 1}
		slices.Sort(tails)
		for _, tailLen := range slices.Compact(tails) {
			for _, policy := range []SubPolicy{SubBlock, SubKick} {
				name := fmt.Sprintf("retain=%d/tail=%d/%s", retain, tailLen, policy)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(retain*7919 + tailLen*31 + int(policy))))
					var tail []Delivery
					for i := committed - tailLen; i < committed; i++ {
						tail = append(tail, Delivery{Seq: uint64(i) + 1, TS: stream.Time(i), Key: fmt.Sprint("k", i)})
					}
					h := newHub(retain, policy, committed, tail)
					ref := newFixedRing(retain, policy, committed, tail)
					first := len(h.ring)
					if want := min(retain, max(hubInitialSlots, tailLen)); first != want {
						t.Fatalf("first ring of %d slots, want %d", first, want)
					}
					var blocked, lagged int
					subs := map[int]*subscriber{}
					nextID := 0
					check := func(step int, what string) {
						t.Helper()
						if h.base != ref.base || h.next != ref.next {
							t.Fatalf("step %d %s: base/next %d/%d, reference %d/%d", step, what, h.base, h.next, ref.base, ref.next)
						}
						if len(h.ring) > retain {
							t.Fatalf("step %d %s: ring of %d slots above the bound %d", step, what, len(h.ring), retain)
						}
					}
					checkSegments := func(step int, what string) {
						t.Helper()
						check(step, what)
						older, newer := h.segments()
						if got, want := slices.Concat(older, newer), ref.live(); !slices.Equal(got, want) {
							t.Fatalf("step %d %s: segments hold %d deliveries, reference %d", step, what, len(got), len(want))
						}
					}
					checkSegments(-1, "restore")
					for step := 0; step < 4000; step++ {
						switch op := rng.Intn(20); {
						case op < 10: // publish
							if policy == SubBlock && h.stalls() != ref.blocks() {
								t.Fatalf("step %d: publication stalls %t, reference %t", step, h.stalls(), ref.blocks())
							}
							if ref.blocks() {
								blocked++
								continue
							}
							d := Delivery{Seq: ref.next + 1, TS: stream.Time(step), Key: fmt.Sprint("d", step)}
							h.publish(d)
							ref.publish(d)
							check(step, "publish")
						case op < 12: // subscribe
							from := uint64(max(0, int(ref.next)-retain-tailLen-3+rng.Intn(retain+tailLen+8)))
							s, err := h.subscribe(from)
							werr := ref.subscribe(nextID, from)
							if (err == nil) != (werr == nil) || (err != nil && !errors.Is(err, ErrLagged)) {
								t.Fatalf("step %d: subscribe(%d) = %v, reference %v", step, from, err, werr)
							}
							if err == nil {
								if s.pos != ref.pos[nextID] {
									t.Fatalf("step %d: subscribe(%d) at %d, reference %d", step, from, s.pos, ref.pos[nextID])
								}
								subs[nextID] = s
								nextID++
							}
						case op < 18: // a batched read
							id := rng.Intn(nextID + 1)
							s := subs[id]
							if s == nil || ref.waits(id) {
								continue
							}
							capacity := 1 + rng.Intn(8)
							if rng.Intn(4) == 0 {
								capacity = retain + 2
							}
							got, done, err := h.nextBatch(s, make([]Delivery, 0, capacity))
							want, wdone, werr := ref.nextBatch(id, capacity)
							if !slices.Equal(got, want) || done != wdone || (err == nil) != (werr == nil) ||
								(errors.Is(werr, ErrLagged) && !errors.Is(err, ErrLagged)) {
								t.Fatalf("step %d: sub %d read %d (done %t, %v), reference %d (done %t, %v)",
									step, id, len(got), done, err, len(want), wdone, werr)
							}
							if err != nil || done {
								lagged++
								h.unsubscribe(s)
								delete(subs, id)
								delete(ref.pos, id)
							}
						case op < 19: // unsubscribe
							id := rng.Intn(nextID + 1)
							if s := subs[id]; s != nil {
								h.unsubscribe(s)
								delete(subs, id)
								delete(ref.pos, id)
							}
						default:
							checkSegments(step, "segments")
						}
					}
					eos := rng.Intn(2) == 0
					h.close(eos, h.next)
					ref.closed, ref.eos = true, eos
					for id, s := range subs {
						for {
							got, done, err := h.nextBatch(s, make([]Delivery, 0, 7))
							want, wdone, werr := ref.nextBatch(id, 7)
							if !slices.Equal(got, want) || done != wdone || (err == nil) != (werr == nil) {
								t.Fatalf("after close: sub %d read %d (done %t, %v), reference %d (done %t, %v)",
									id, len(got), done, err, len(want), wdone, werr)
							}
							if done || err != nil {
								break
							}
						}
					}
					checkSegments(-1, "close")
					t.Logf("ring %d -> %d slots, %d publications held back, %d readers lagged", first, len(h.ring), blocked, lagged)
				})
			}
		}
	}
}

// TestNewHubAllocatesLazily: a hub with the default bound and no restored
// tail allocates a few kilobytes, not the bound's slots — an eager ring
// would take 512 KB here.
func TestNewHubAllocatesLazily(t *testing.T) {
	const limit = 64 << 10
	least := ^uint64(0)
	for range 5 { // the least of a few, so a background allocation cannot fail it
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h := newHub(1<<14, SubBlock, 0, nil)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(h)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= limit {
		t.Fatalf("newHub(1<<14) allocated %d B, want under %d", least, limit)
	}
}
