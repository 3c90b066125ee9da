package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
)

func hubNext(h *hub) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.next
}

// nextFor takes a single delivery: a batch of at most one.
func (h *hub) nextFor(s *subscriber) (Delivery, bool, error) {
	var one [1]Delivery
	batch, done, err := h.nextBatch(s, one[:0])
	if len(batch) == 0 {
		return Delivery{}, done, err
	}
	return batch[0], done, err
}

// TestHubBatchesRacePublisher races one publisher against subscribers that
// take deliveries in batches of different bounds, under both policies. Every
// subscriber must see contiguous sequence numbers from 1 — never a skip or a
// repeat — until the end of stream or, under SubKick, until it is kicked,
// which must surface as ErrLagged: a subscriber that never reads while the
// ring overflows is always kicked. Run under -race it also checks that
// batches read the ring only under the lock.
func TestHubBatchesRacePublisher(t *testing.T) { raceHubBatches(t, 64) }

// TestHubGrowsUnderRacingReaders is TestHubBatchesRacePublisher with a bound
// above the ring's first allocation: the ring doubles twice while the
// subscribers take batches from it, and under -race the re-laid slots must
// be read only under the lock too.
func TestHubGrowsUnderRacingReaders(t *testing.T) { raceHubBatches(t, 4*hubInitialSlots) }

// raceHubBatches races one publisher of 5000 deliveries against batching
// subscribers on a hub bounded to ring deliveries, under both policies.
func raceHubBatches(t *testing.T, ring int) {
	const published = 5000
	for _, policy := range []SubPolicy{SubBlock, SubKick} {
		t.Run(policy.String(), func(t *testing.T) {
			h := newHub(ring, policy, 0, nil)
			caps := []int{1, 3, 64, 256}
			subs := make([]*subscriber, len(caps))
			for i := range subs {
				s, err := h.subscribe(0)
				if err != nil {
					t.Fatalf("subscribe: %v", err)
				}
				subs[i] = s
			}
			type outcome struct {
				last uint64
				err  error
			}
			results := make([]outcome, len(caps))
			var wg sync.WaitGroup
			for i, s := range subs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]Delivery, 0, caps[i])
					var last uint64
					for {
						batch, done, err := h.nextBatch(s, buf)
						if err != nil || done {
							results[i] = outcome{last, err}
							return
						}
						for _, d := range batch {
							if d.Seq != last+1 {
								results[i] = outcome{last, fmt.Errorf("seq %d after %d", d.Seq, last)}
								return
							}
							last = d.Seq
						}
					}
				}()
			}
			var idle *subscriber
			if policy == SubKick {
				var err error
				if idle, err = h.subscribe(0); err != nil {
					t.Fatalf("subscribe: %v", err)
				}
			}
			for seq := uint64(1); seq <= published; seq++ {
				h.publish(Delivery{Seq: seq})
			}
			h.close(true, published)
			wg.Wait()
			for i, r := range results {
				switch {
				case r.err == nil && r.last != published:
					t.Errorf("subscriber %d (batch %d) ended cleanly after seq %d of %d", i, caps[i], r.last, published)
				case r.err != nil && (policy == SubBlock || !errors.Is(r.err, ErrLagged)):
					t.Errorf("subscriber %d (batch %d) under %s: %v", i, caps[i], policy, r.err)
				}
			}
			if idle != nil {
				if _, _, err := h.nextBatch(idle, make([]Delivery, 0, 8)); !errors.Is(err, ErrLagged) {
					t.Errorf("a subscriber a full ring behind was not kicked: %v", err)
				}
			}
		})
	}
}

// TestHubSubBlockBlocksPublisher pins the SubBlock policy at the hub level:
// a publisher that would overwrite the slowest subscriber's next delivery
// blocks, and the subscriber's read is exactly what unblocks it.
func TestHubSubBlockBlocksPublisher(t *testing.T) {
	h := newHub(4, SubBlock, 0, nil)
	sub, err := h.subscribe(0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	for i := 1; i <= 4; i++ {
		h.publish(Delivery{Seq: uint64(i)}) // fills the ring, must not block
	}
	blocked := make(chan struct{})
	go func() {
		h.publish(Delivery{Seq: 5})
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatalf("5th publish into a full ring did not block")
	case <-time.After(50 * time.Millisecond):
	}
	d, done, err := h.nextFor(sub)
	if err != nil || done || d.Seq != 1 {
		t.Fatalf("nextFor: %v %v %v", d, done, err)
	}
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatalf("publisher still blocked after the subscriber freed a slot")
	}
	// Detaching the only subscriber releases the engine entirely.
	blocked2 := make(chan struct{})
	go func() {
		for i := 6; i <= 20; i++ {
			h.publish(Delivery{Seq: uint64(i)})
		}
		close(blocked2)
	}()
	h.unsubscribe(sub)
	select {
	case <-blocked2:
	case <-time.After(2 * time.Second):
		t.Fatalf("publisher blocked with no subscribers attached")
	}
}

// TestHubSubKickKicksLaggard pins the SubKick policy: the publisher never
// blocks, a subscriber a full ring behind is disconnected with ErrLagged, and
// a subscriber that keeps up is untouched.
func TestHubSubKickKicksLaggard(t *testing.T) {
	h := newHub(4, SubKick, 0, nil)
	stalled, err := h.subscribe(0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	active, err := h.subscribe(0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	for i := 1; i <= 10; i++ {
		h.publish(Delivery{Seq: uint64(i)}) // must never block
		d, done, err := h.nextFor(active)
		if err != nil || done || d.Seq != uint64(i) {
			t.Fatalf("active read %d: %v %v %v", i, d, done, err)
		}
	}
	if _, _, err := h.nextFor(stalled); !errors.Is(err, ErrLagged) {
		t.Fatalf("stalled subscriber not kicked: %v", err)
	}
	// The active subscriber is still attached and sees the clean close.
	h.close(true, 10)
	if _, done, err := h.nextFor(active); err != nil || !done {
		t.Fatalf("active subscriber broken after kick of another: %v %v", done, err)
	}
}

// TestHubSubscribeBounds pins the resume-cursor clamps: requests below the
// incarnation's committed mark clamp up (committed deliveries are never
// re-sent), requests beyond the head clamp down, and requests inside the
// incarnation but outside the ring fail with ErrLagged.
func TestHubSubscribeBounds(t *testing.T) {
	h := newHub(4, SubBlock, 10, nil)
	s1, err := h.subscribe(3) // below the committed mark: clamps to 10
	if err != nil {
		t.Fatalf("subscribe below start: %v", err)
	}
	if s1.pos != 10 {
		t.Fatalf("pos %d, want clamp to start 10", s1.pos)
	}
	s2, err := h.subscribe(50) // beyond the head: clamps to next
	if err != nil {
		t.Fatalf("subscribe beyond head: %v", err)
	}
	if s2.pos != 10 {
		t.Fatalf("pos %d, want clamp to next 10", s2.pos)
	}
	h.unsubscribe(s1)
	h.unsubscribe(s2)
	for i := 1; i <= 6; i++ {
		h.publish(Delivery{Seq: 10 + uint64(i)}) // next=16, base=12
	}
	if _, err := h.subscribe(11); !errors.Is(err, ErrLagged) {
		t.Fatalf("in-incarnation request outside the ring not rejected: %v", err)
	}
	if _, err := h.subscribe(12); err != nil {
		t.Fatalf("oldest retained position rejected: %v", err)
	}
}

// TestBackpressureSubBlockBoundsServer is satellite 2's SubBlock half: a
// subscriber that stops reading stalls delivery, the stall propagates
// deterministically back to ingest (the admitted high-water mark pins), the
// delivery ring never grows past its bound, and the engine's live-state
// profile is byte-identical to an unstalled run's — the server's memory is
// bounded by the clean profile no matter how slow a subscriber is. When the
// subscriber resumes, the run completes and delivers the exact sequence.
func TestBackpressureSubBlockBoundsServer(t *testing.T) {
	const retain = 8
	cfg, base := testParams(core.JIT())
	_, want := base.RunKeys()
	if len(want) <= retain+1 {
		t.Fatalf("workload too sparse (%d finals) to overflow a ring of %d", len(want), retain)
	}
	tuples := workload(base)

	// Clean reference run: same query, same trace cadence, free-running.
	cleanTr := obs.New(obs.Options{SampleEvery: 10 * stream.Second})
	clean := cfg
	clean.Trace = cleanTr
	serveRun(t, clean, feedAll(tuples))

	// Stalled run: tiny ring, tiny ingest buffer, a subscriber that attaches
	// and then refuses to read, beside one that reads over TCP.
	stallTr := obs.New(obs.Options{SampleEvery: 10 * stream.Second})
	scfg := cfg
	scfg.Retain = retain
	scfg.MaxPending = 4
	scfg.Policy = SubBlock
	scfg.Trace = stallTr
	s, err := Open(scfg)
	if err != nil {
		t.Fatalf("open stalled: %v", err)
	}
	defer s.Shutdown()
	stalled, err := s.hub.subscribe(0)
	if err != nil {
		t.Fatalf("hub subscribe: %v", err)
	}
	// Runs before the deferred Shutdown (LIFO): if an assertion fails while
	// the engine is blocked in publish on this cursor, releasing it is the
	// only way Shutdown's drain can complete. Idempotent with the normal
	// drain below.
	defer s.hub.unsubscribe(stalled)
	tcpDone, err := attach(s.Addr())
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	feedDone := make(chan error, 1)
	go func() { feedDone <- feed(s.Addr(), tuples) }()

	// The stall point is deterministic: the engine delivers exactly `retain`
	// results into the ring, then blocks publishing the next one.
	deadline := time.Now().Add(10 * time.Second)
	for hubNext(s.hub) < retain {
		if time.Now().After(deadline) {
			t.Fatalf("delivery never reached the ring bound (next=%d)", hubNext(s.hub))
		}
		time.Sleep(time.Millisecond)
	}
	// Pinned: the ring must not advance while the slow subscriber sits still.
	pinnedAt := hubNext(s.hub)
	time.Sleep(100 * time.Millisecond)
	if got := hubNext(s.hub); got != pinnedAt {
		t.Fatalf("ring advanced from %d to %d despite a stalled SubBlock subscriber", pinnedAt, got)
	}
	if pinnedAt != retain {
		t.Fatalf("ring pinned at %d, want exactly the bound %d", pinnedAt, retain)
	}
	// Ingest pins too, but not at the same instant the ring does: after the
	// engine blocks in publish, the ingest handler keeps admitting until the
	// channel's MaxPending slots fill, so the admitted mark can advance a few
	// IDs past the moment the ring pins. Poll until it quiesces, then assert
	// the invariant that matters: admission stopped strictly short of the
	// stream's end.
	quiesce := time.Now().Add(10 * time.Second)
	hwm := s.IngestHWM()
	for {
		time.Sleep(100 * time.Millisecond)
		next := s.IngestHWM()
		if next == hwm {
			break
		}
		if time.Now().After(quiesce) {
			t.Fatalf("ingest mark never quiesced during the stall (at %d)", next)
		}
		hwm = next
	}
	if last := tuples[len(tuples)-1].ID; hwm == last {
		t.Fatalf("ingest admitted the whole stream during the stall")
	}

	// Resume: drain the stalled cursor; everything completes and matches.
	go func() {
		for {
			if _, done, err := s.hub.nextFor(stalled); done || err != nil {
				return
			}
		}
	}()
	if err := <-feedDone; err != nil {
		t.Fatalf("feeder: %v", err)
	}
	sub := <-tcpDone
	if sub.err != nil {
		t.Fatalf("tcp subscriber: %v", sub.err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	assertSameSequence(t, "stalled run", sub.keys, want)

	// The memory-bound claim: the live-state series of the stalled run is
	// identical to the clean run's — backpressure holds memory to the clean
	// profile; it does not buffer past it.
	cleanS, stallS := cleanTr.Samples(), stallTr.Samples()
	if len(cleanS) == 0 || len(cleanS) != len(stallS) {
		t.Fatalf("sample series diverge: clean %d, stalled %d", len(cleanS), len(stallS))
	}
	for i := range cleanS {
		if cleanS[i].T != stallS[i].T || cleanS[i].LiveBytes != stallS[i].LiveBytes {
			t.Fatalf("sample %d diverges: clean (T=%d live=%d) stalled (T=%d live=%d)",
				i, cleanS[i].T, cleanS[i].LiveBytes, stallS[i].T, stallS[i].LiveBytes)
		}
	}
}

// TestBackpressureSubKickDropsLaggard is satellite 2's SubKick half: a
// subscriber that cannot keep up is disconnected, ingest runs to completion
// at full rate, and the laggard (plus anyone resuming from evicted history)
// gets ErrLagged rather than silently missing deliveries.
func TestBackpressureSubKickDropsLaggard(t *testing.T) {
	const retain = 8
	cfg, base := testParams(core.JIT())
	_, want := base.RunKeys()
	if len(want) <= retain+1 {
		t.Fatalf("workload too sparse (%d finals) to overflow a ring of %d", len(want), retain)
	}
	cfg.Retain = retain
	cfg.Policy = SubKick
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown()
	stalled, err := s.hub.subscribe(0)
	if err != nil {
		t.Fatalf("hub subscribe: %v", err)
	}
	// The stalled subscriber must not slow the run down: feed synchronously;
	// the eos ack arriving proves ingest never blocked for long.
	if err := feed(s.Addr(), workload(base)); err != nil {
		t.Fatalf("feed: %v", err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if _, _, err := s.hub.nextFor(stalled); !errors.Is(err, ErrLagged) {
		t.Fatalf("laggard not kicked: %v", err)
	}
	if got := s.Stats().Delivered; got != uint64(len(want)) {
		t.Fatalf("kick run delivered %d, want %d", got, len(want))
	}
	// Resuming from evicted history is an explicit lag error over the wire.
	if old := collect(s.Addr(), 0); old.err == nil || !strings.Contains(old.err.Error(), "lagged") {
		t.Fatalf("resume from evicted history: %v, want a lag error", old.err)
	}
	// Resuming inside the retained tail replays exactly the tail.
	from := len(want) - 3
	tail := collect(s.Addr(), uint64(from))
	if tail.err != nil {
		t.Fatalf("tail resume: %v", tail.err)
	}
	assertSameSequence(t, "tail resume", tail.keys, want[from:])
}
