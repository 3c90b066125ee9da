// Package engine drives a built plan as an event loop over two kinds of
// events: tuple arrivals, pulled lazily from a streaming source, and timer
// deadlines, announced by the operators themselves (core.JoinOp.NextDeadline)
// and merged with the arrival sequence by taking their minimum.
//
// Each arrival first fires the expiry sweep on exactly the operators whose
// deadline has passed (DESIGN.md §4; a sweep below an operator's deadline is
// provably a no-op, so skipping it changes nothing — sched_test.go holds the
// sweep-everything reference, plan.Built.ReplayInWindow), then enters its feed
// operator and drives the pipelined plan synchronously to quiescence — the
// single-threaded equivalent of the paper's pre-emptive scheduling policies
// (Sec. III-B/C).
//
// After the source is exhausted, an optional drain phase (Options.Drain)
// keeps popping timer deadlines in time order up to the application horizon,
// so every suspended result either resumes or expires — without it, results
// whose resumption trigger or anchor expiry falls after the last arrival
// would be silently dropped (DESIGN.md §4, drain-at-horizon invariant).
// Drain also switches the plan into exact-delivery recovery
// (plan.Built.SetExact): expiry-boundary recoveries generate the pairs REF
// formed live, so a drained run's finals match REF in every mode.
//
// A run drives one plan.Built from first arrival to drain. A Reoptimizer
// (internal/adapt) may reshape that plan's operator tree at a quiescent cut
// between arrivals; the engine then only rebuilds its timer schedule over the
// new operators — the plan object, and with it the sink, ledger and tracer the
// Result is read from, never changes. Each arrival enters through
// plan.Built.Ingest, the same step a snapshot replay takes.
//
// Ingestion is streaming: RunStream pulls tuples one at a time from a
// next-func iterator (see source.Stream for the lazy workload generator), so
// memory stays O(operator state) instead of O(arrivals). Run adapts a
// materialized slice to the same loop.
package engine

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/minheap"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stream"
)

// Result summarizes one run.
type Result struct {
	// Results is the number of final results delivered to the sink.
	Results uint64
	// CostUnits is the deterministic work figure (CPU-time analogue).
	CostUnits uint64
	// WallTime is the host CPU time actually spent.
	WallTime time.Duration
	// PeakMemKB is the peak accounted live bytes in kilobytes.
	PeakMemKB float64
	// PeakMem splits that peak by structure (metrics.Account.PeakBy), and
	// PeakOps by operator as well (metrics.Account.PeakByOp): each row's
	// structures, summed over the rows, are PeakMem.
	PeakMem metrics.MemLedger
	PeakOps []metrics.OpMem
	// Counters is the full counter breakdown.
	Counters metrics.Counters
	// OrderViolations counts out-of-order sink deliveries (must be 0 except
	// for documented expiry-sweep late recoveries).
	OrderViolations uint64
	// Arrivals is the number of input tuples processed.
	Arrivals int
	// Ops are the ledgers of the operators live at run end, in plan order
	// (producers before consumers) — the rows `jitrun -stats` prints.
	// Counters minus their sum is the plan's run ledger, which also holds the
	// operators earlier migrations retired.
	Ops []metrics.OpCounters
}

// Options configures a run.
type Options struct {
	// Drain keeps firing timer deadlines after the last arrival, in time
	// order, so suspended results whose resumption trigger or anchor expiry
	// falls past the end of the stream are still delivered (the end-of-
	// stream drain of DESIGN.md §4). Drain also enables exact-delivery
	// recovery on every operator, making finals match REF in every mode.
	// Off by default: a drain-less run is bit-identical to the historical
	// slice-driven engine, which the paper's figure reproductions
	// (internal/exp) rely on.
	Drain bool
	// Horizon caps the drain: deadlines beyond it are left unfired. Zero
	// means the natural application horizon — the last arrival's timestamp
	// plus the plan window, past which every finite deadline has fired and
	// every window has closed.
	Horizon stream.Time
	// Reopt, when non-nil, lets an adaptive re-optimizer (internal/adapt)
	// migrate the plan mid-run (DESIGN.md §7). Requires Drain: the handoff's
	// lossless-delivery argument rests on exact-delivery recovery.
	Reopt Reoptimizer
	// Disorder, when > 0, accepts out-of-order sources under the bounded-
	// disorder discipline of DESIGN.md §8 (a deliberate post-paper
	// extension): arrivals are held in a reorder buffer and released in
	// timestamp order once the watermark (max seen TS minus Disorder)
	// passes them, so the operator pipeline still sees a non-decreasing
	// timestamp sequence and every exactness argument carries over
	// unchanged. Tuples arriving behind the watermark are counted in
	// Counters.LateDropped, never silently lost. A source whose disorder is
	// bounded by this value (source.Disordered with bound <= Disorder) is
	// restored exactly: the released sequence is bit-identical to the
	// in-order sort, so finals match the in-order run's in every mode.
	Disorder stream.Time
}

// CheckTimeRange refuses a window and disorder bound too large for the
// engine's time arithmetic: it adds both to timestamps up to stream.MaxTime,
// and every sum must stay below core.NoDeadline, the sentinel of an operator
// with nothing left to expire, or a real deadline reads as none. It is the
// one statement of the rule, for every configuration that reaches an engine.
func CheckTimeRange(window, disorder stream.Time) error {
	if window >= core.NoDeadline-stream.MaxTime-disorder {
		return fmt.Errorf("window %v plus disorder %v overflows the engine's time range (latest timestamp %d)", window, disorder, stream.MaxTime)
	}
	return nil
}

// Reoptimizer is the engine's hook for mid-run plan migration (DESIGN.md
// §7). The engine consults it between the deadline firings and the
// processing of each arrival, so a migration always happens at a quiescent
// cut: no probe is in flight and every deadline at or before the cut has
// fired on the outgoing operators before Migrate is called. b is the run's
// one plan in all three calls.
type Reoptimizer interface {
	// Attach is called once at run start, before any arrival is processed.
	Attach(b *plan.Built)
	// Decide observes one arrival before it is processed and reports
	// whether the engine should migrate now, at cut time t.TS.
	Decide(t *stream.Tuple, b *plan.Built) bool
	// Migrate acts at the cut; the engine has already drained b's timer
	// deadlines to it. A non-nil return means b's operator tree changed
	// (plan.Built.Reshape — the plan object itself stays b) and the engine
	// must reschedule; nil means it did not.
	Migrate(cut stream.Time, b *plan.Built) *plan.Built
}

// Engine executes one plan over one arrival sequence.
type Engine struct {
	built *plan.Built
	opts  Options
}

// New creates an engine for a built plan with default options (no drain).
// Like NewWithOptions, it (re)applies its options to the plan's operators, so
// reusing one plan across engines never leaks a previous engine's
// exact-delivery mode.
func New(b *plan.Built) *Engine { return NewWithOptions(b, Options{}) }

// NewWithOptions creates an engine with explicit options. Drain implies
// exact-delivery mode on every operator: recovery at expiry boundaries
// generates the pairs REF formed live (plan.Built.SetExact, DESIGN.md §4),
// which is what makes the drained run's finals match REF exactly. Without
// Drain the operators keep the paper prototype's drop-at-expiry semantics,
// bit-identical to the historical engine. The operators a migration wires in
// (Built.Reshape) inherit the setting.
func NewWithOptions(b *plan.Built, o Options) *Engine {
	if o.Reopt != nil && !o.Drain {
		panic("engine: Reopt requires Drain — the migration handoff relies on exact-delivery recovery (DESIGN.md §7)")
	}
	b.SetExact(o.Drain)
	return &Engine{built: b, opts: o}
}

// Run processes a materialized arrival slice — a convenience wrapper around
// RunStream for tests and hand-built traces.
func (e *Engine) Run(arrivals []*stream.Tuple) Result {
	return e.RunStream(SliceSource(arrivals))
}

// SliceSource adapts a materialized arrival slice to the pull iterator
// RunStream consumes.
func SliceSource(arrivals []*stream.Tuple) func() (*stream.Tuple, bool) {
	i := 0
	return func() (*stream.Tuple, bool) {
		if i >= len(arrivals) {
			return nil, false
		}
		t := arrivals[i]
		i++
		return t, true
	}
}

// ChanSource adapts a channel of tuples to the pull iterator RunStream
// consumes — the per-replica entry point of sharded execution
// (internal/shard, DESIGN.md §5): a dispatcher routes the global stream
// into per-shard channels and each shard's engine goroutine pulls from its
// own. End-of-stream is the channel closing; the engine then drains as
// usual. Tuples arriving through a channel must still be in non-decreasing
// timestamp order, which a single dispatcher preserves per construction.
func ChanSource(ch <-chan *stream.Tuple) func() (*stream.Tuple, bool) {
	return func() (*stream.Tuple, bool) {
		t, ok := <-ch
		return t, ok
	}
}

// RunStream pulls tuples from next until it reports false, interleaving
// arrival processing with deadline-driven expiry sweeps, then (with
// Options.Drain) drains the remaining timer deadlines to the horizon. The
// source must yield tuples in non-decreasing timestamp order, unless
// Options.Disorder admits bounded out-of-order delivery — the reorder stage
// then restores timestamp order before the pipeline sees anything.
func (e *Engine) RunStream(next func() (*stream.Tuple, bool)) Result {
	b := e.built
	start := time.Now() //jitlint:allow wallclock Result.Wall is operator-facing elapsed time; no deterministic artifact reads it
	// Nil means tracing is off and every call below is a pointer test
	// (DESIGN.md §9).
	tr := b.Trace
	if e.opts.Disorder > 0 {
		next = reorderSource(next, e.opts.Disorder, &b.RunLedger.LateDropped, tr)
	}
	sched := newScheduler(b.Joins)
	if e.opts.Reopt != nil {
		e.opts.Reopt.Attach(b)
	}
	arrivals := 0
	lastTS := stream.Time(0)
	for {
		t, ok := next()
		if !ok {
			break
		}
		arrivals++
		lastTS = t.TS
		tr.Advance(t.TS)
		tr.Arrival(t)
		if e.opts.Reopt != nil && e.opts.Reopt.Decide(t, b) {
			// Quiesce the outgoing plan to the cut: fire every timer deadline
			// at or before t.TS (cascades included, via the drain loop), so
			// each result whose window closes by the cut is delivered by the
			// operators that formed it. Whatever is still suspended afterwards
			// has its whole constituent set inside the snapshot window, and the
			// reshaped tree regenerates it from the replay (DESIGN.md §7).
			sched.drain(t.TS, b.RunLedger, tr)
			if e.opts.Reopt.Migrate(t.TS, b) != nil {
				sched = newScheduler(b.Joins)
				sched.refresh()
			}
		}
		sched.fireDue(t.TS, b.RunLedger)
		b.Ingest(t)
		sched.refresh()
	}
	if e.opts.Drain {
		horizon := e.opts.Horizon
		if horizon == 0 {
			horizon = lastTS + b.Window
		}
		sched.drain(horizon, b.RunLedger, tr)
	}
	tr.Finish()
	wall := time.Since(start) //jitlint:allow wallclock Result.Wall is operator-facing elapsed time; no deterministic artifact reads it
	totals := b.Totals()
	return Result{
		Results:         b.Sink.Count(),
		CostUnits:       totals.CostUnits(),
		WallTime:        wall,
		PeakMemKB:       b.Account.PeakKB(),
		PeakMem:         b.Account.PeakBy(),
		PeakOps:         b.Account.PeakByOp(),
		Counters:        totals,
		OrderViolations: b.Sink.OrderViolations,
		Arrivals:        arrivals,
		Ops:             b.Ops(),
	}
}

// reorderSource wraps a possibly out-of-order source in the bounded-disorder
// admission discipline (DESIGN.md §8). Arrivals sit in a min-heap on
// (TS, ID); a buffered tuple is released only when its timestamp falls
// strictly below the watermark — the maximum ingested timestamp minus the
// bound — because every future arrival is assumed to carry a timestamp at or
// above that watermark. Under that assumption (which source.Disordered with
// the same or smaller bound guarantees), releases are in strictly
// non-decreasing timestamp order and, since IDs were assigned in timestamp
// order, the released sequence is exactly the in-order sort. Arrivals
// already strictly behind the watermark cannot be ordered ahead of what was
// released; they are dropped and counted in *late. At end of source the
// remaining buffer flushes in (TS, ID) order, ahead of the engine's drain
// phase, so the drain cut stays exact.
func reorderSource(next func() (*stream.Tuple, bool), bound stream.Time, late *uint64, tr *obs.Tracer) func() (*stream.Tuple, bool) {
	h := minheap.Heap[*stream.Tuple]{Less: func(a, b *stream.Tuple) bool {
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.ID < b.ID
	}}
	var maxSeen stream.Time
	var lastOut stream.Time
	done := false
	return func() (*stream.Tuple, bool) {
		for {
			if h.Len() > 0 && (done || h.Min().TS < maxSeen-bound) {
				t := h.Pop()
				// Internal watermark-monotonicity invariant: the released
				// sequence must be in timestamp order, or every downstream
				// exactness argument collapses.
				if t.TS < lastOut {
					panic(fmt.Sprintf("engine: reorder released TS %d after %d", t.TS, lastOut))
				}
				lastOut = t.TS
				return t, true
			}
			if done {
				return nil, false
			}
			t, ok := next()
			if !ok {
				done = true
				continue
			}
			if t.TS > maxSeen {
				maxSeen = t.TS
				tr.Watermark(maxSeen - bound)
			}
			if t.TS < maxSeen-bound {
				*late++
				tr.LateDrop(t, maxSeen-bound)
				continue
			}
			h.Push(t)
		}
	}
}

// scheduler merges the operators' sweep deadlines (DESIGN.md §4). refresh
// reads every operator's NextDeadline after every arrival anyway, so the
// earliest deadline is a minimum over that slice.
type scheduler struct {
	joins     []*core.JoinOp
	deadlines []stream.Time // current NextDeadline per operator
	// armed[i] says deadlines[i] is due to fire: it is finite and the drain
	// has not given up on it since it last moved.
	armed []bool
}

func newScheduler(joins []*core.JoinOp) *scheduler {
	n := len(joins)
	s := &scheduler{joins: joins, deadlines: make([]stream.Time, n), armed: make([]bool, n)}
	for i := range s.deadlines {
		s.deadlines[i] = core.NoDeadline
	}
	return s
}

// refresh re-reads every operator's deadline and re-arms the ones that moved.
func (s *scheduler) refresh() {
	for i, j := range s.joins {
		if d := j.NextDeadline(); d != s.deadlines[i] {
			s.deadlines[i], s.armed[i] = d, d < core.NoDeadline
		}
	}
}

// peek returns the earliest armed deadline and the operator it belongs to,
// ties broken by plan position; ok is false when none is armed.
func (s *scheduler) peek() (at stream.Time, idx int, ok bool) {
	idx = -1
	for i, d := range s.deadlines {
		if s.armed[i] && (idx < 0 || d < at) {
			at, idx = d, i
		}
	}
	return at, idx, idx >= 0
}

// sweepDue runs the expiry sweep, at time now, on every operator whose
// deadline has passed, then reschedules. Operators are visited in plan order
// (producers before consumers), re-checking the live deadline per operator so
// that cascades triggered by an earlier sweep are picked up within the same
// pass — exactly the work a sweep of every operator performs (the reference of
// TestDeadlineSweepEquivalence), minus the no-op sweeps.
func (s *scheduler) sweepDue(now stream.Time, ctr *metrics.Counters) {
	for _, j := range s.joins {
		if j.NextDeadline() <= now {
			ctr.Sweeps++
			j.Sweep(now)
		}
	}
	s.refresh()
}

// fireDue is the arrival-time step: sweep at now if any deadline has passed.
func (s *scheduler) fireDue(now stream.Time, ctr *metrics.Counters) {
	if at, _, ok := s.peek(); ok && at <= now {
		s.sweepDue(now, ctr)
	}
}

// drain fires the remaining timer deadlines in time order: the engine clock
// advances to each deadline and sweeps the operators due at it, so suspended
// tuples reactivate while their windows are still open. Deadlines are exact,
// but a sweep's own recovery cascade can create entries already due at the
// clock: a deadline that survives its sweep gets one more, and one that
// survives that too is disarmed. The clock never moves backwards, so the loop
// reaches the horizon — or the last finite deadline — in finitely many
// rounds.
func (s *scheduler) drain(horizon stream.Time, ctr *metrics.Counters, tr *obs.Tracer) {
	prev, repeats := stream.Time(-1), 0
	for {
		d, i, ok := s.peek()
		if !ok || d > horizon {
			return
		}
		tr.Advance(d)
		if d != prev {
			prev, repeats = d, 0
		} else if repeats++; repeats > 1 {
			// Two sweeps left the deadline in place: disarm it. The
			// operator is re-armed only when its reported deadline moves,
			// and it still gets swept whenever any later deadline fires, so
			// no real work is lost.
			s.armed[i] = false
			prev, repeats = -1, 0
			continue
		}
		s.sweepDue(d, ctr)
	}
}
