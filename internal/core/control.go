package core

import (
	"repro/internal/feedback"
	"repro/internal/operator"
	"repro/internal/state"
	"repro/internal/stream"
)

// Feedback implements operator.Producer — the Handle_Feedback procedure of
// Fig. 6. Per the scheduling policies of Sec. III-B/C the handling is
// pre-emptive and synchronous: propagation happens before local handling,
// and for resumptions the demanded partial results S_Π are returned to the
// calling consumer. Those built directly from a tuple parked, or a pair
// suppressed, under a resumed MNS come deferred under it (feedback.Deferred).
func (j *JoinOp) Feedback(msg feedback.Message) []feedback.Deferred {
	if !j.mode.enabled() {
		return nil
	}
	j.trace.Feedback(j.name, msg.Cmd.String(), len(msg.MNS))
	switch msg.Cmd {
	case feedback.Suspend:
		for _, m := range msg.MNS {
			j.handleSuspend(m, msg.At)
		}
	case feedback.Resume:
		var out []feedback.Deferred
		for _, m := range msg.MNS {
			j.handleResume(m, &out)
		}
		return out
	}
	return nil
}

// handleSuspend dispatches one MNS of a suspension feedback by type:
// Ø (total suspension, the DOE case), Type I (contained in one input side),
// or Type II (spanning both sides → an origin here, Sec. IV-B). at is the
// detecting consumer's clock (feedback.Message.At): every entry m makes
// records it, and a relay passes it on.
func (j *JoinOp) handleSuspend(m *feedback.MNS, at stream.Time) {
	if m.IsEmpty() {
		j.suspendTotal(m, at)
		return
	}
	switch {
	case j.in[operator.Left].sources.Contains(m.Sources):
		j.suspendTypeI(j.in[operator.Left], m, at)
	case j.in[operator.Right].sources.Contains(m.Sources):
		j.suspendTypeI(j.in[operator.Right], m, at)
	default:
		j.suspendTypeII(m, at)
	}
}

// suspendTotal handles the Ø MNS: all production stops. Arrivals on both
// sides are diverted to the Ø blacklist entries; existing state tuples stay
// in place (they are fully caught up and will not be probed, since no new
// arrivals reach the states). The suspension propagates upstream because a
// fully suspended operator has no demand for inputs.
func (j *JoinOp) suspendTotal(m *feedback.MNS, at stream.Time) {
	for p := operator.Port(0); p < 2; p++ {
		j.upstream(j.in[p], feedback.Suspend, m, at)
	}
	for p := operator.Port(0); p < 2; p++ {
		s := j.in[p]
		entry, created := s.black.Ensure(m)
		if created {
			entry.Detected = at
		}
		// Mark any in-flight probing input on this port for deferred
		// parking: Ø covers everything.
		for _, f := range j.frames {
			if f.parkEntry != nil || f.port != p {
				continue
			}
			f.parkEntry = entry
		}
	}
}

// upstream sends one MNS of feedback to the producer feeding side s, when
// there is one and it honours feedback, and returns what comes back (the
// demanded partial results S_Π of a resumption). at is a suspension's
// detection clock, relayed unchanged.
func (j *JoinOp) upstream(s *side, cmd feedback.Command, m *feedback.MNS, at stream.Time) []feedback.Deferred {
	if s.prod == nil || !s.prod.CanSuspend() {
		return nil
	}
	j.ctr.Feedbacks++
	return s.prod.Feedback(feedback.Message{Cmd: cmd, MNS: []*feedback.MNS{m}, At: at})
}

// suspendTypeI implements Suspend_Production for a Type I MNS on side s:
// propagate upstream, then move the tuples carrying its signature from the
// state to the blacklist entry, recording their resumption cursors.
func (j *JoinOp) suspendTypeI(s *side, m *feedback.MNS, at stream.Time) {
	if m.Expiry <= j.now {
		// Born-expired anchor (exact-mode recovery cascades can detect
		// MNSes on composites already at their window boundary; a legacy
		// input is always alive at now): parking under it would only bounce
		// the tuples back out at the very next sweep — leave production live
		// instead.
		return
	}
	o := j.in[s.port.Opposite()]
	j.upstream(s, feedback.Suspend, m, at)
	entry, created := s.black.Ensure(m)
	if !created {
		// Already suspended: the consumer re-detected the MNS on a queued
		// super-tuple; the entry's expiry has been extended, nothing else
		// to do (Sec. III-B).
		return
	}
	entry.Detected = at
	// Mark a matching in-flight probing input on this port for parking: "if
	// right before handling the feedback, OP was joining a super-tuple t of
	// s, t is also inserted to BL" (Sec. IV-B). Parking is deferred until
	// the input's current probe completes (see probe.parkEntry).
	for _, f := range j.frames {
		if f.parkEntry != nil || f.port != s.port {
			continue
		}
		if j.mnsMatches(m, f.input) {
			f.parkEntry = entry
		}
	}
	// Move matching state tuples.
	opFrame := j.topFrameOn(o.port)
	j.ctr.Comparisons += uint64(len(m.Sig)) // the lookup by m's values
	removed := s.st.RemoveIf(m.Sig, func(c *stream.Composite) bool {
		return j.mnsMatches(m, c)
	})
	for _, se := range removed {
		cursor := o.seq.Watermark()
		if opFrame != nil && opFrame.lastPartner < se.Seq {
			// The in-flight opposite input has not reached this tuple yet;
			// exclude it from the "already joined" claim.
			cursor = opFrame.seq - 1
		}
		j.park(s, entry, feedback.Suspended{E: se, Cursor: cursor, Pending: uncovered(o, se.Seq, cursor)})
	}
}

// uncovered lists the pairs a tuple parked on the opposite side of o with the
// given sequence and cursor owes despite its cursor claim. The watermark
// claim is false for o's tuples that are currently suspended with scan
// cursors short of the parked tuple: their aborted or never-started probes
// never reached it. Recording those pairs explicitly lets resumption generate
// them (deduplicated against Done if the other side resumes first) — without
// this, mutually suspended partners across operators deadlock and lose
// results (DESIGN.md §2).
func uncovered(o *side, seq, cursor uint64) []state.Entry {
	var pending []state.Entry
	for _, oe := range o.black.List() {
		for i := range oe.Tuples {
			w := &oe.Tuples[i]
			if w.Cursor < seq && w.E.Seq <= cursor && !w.IsDone(seq) {
				pending = append(pending, w.E)
			}
		}
	}
	return pending
}

// suspendTypeII implements the mark-result protocol of Sec. IV-B at the
// operator the MNS reaches: an origin entry splits the MNS's signature over
// the two input sides and, while active, suppresses the results of the
// joining pairs that carry both sides (joinPair). Nothing is sent upstream:
// a producer below sees only one side of any pair the origin covers.
func (j *JoinOp) suspendTypeII(m *feedback.MNS, at stream.Time) {
	e := j.marks.ActivateOrigin(m, j.in[operator.Left].sources)
	if e == nil {
		return // duplicate; expiry extended
	}
	e.Detected = at
}

// handleResume dispatches one MNS of a resumption feedback and appends the
// demanded partial results to out.
func (j *JoinOp) handleResume(m *feedback.MNS, out *[]feedback.Deferred) {
	if m.IsEmpty() {
		j.resumeTotal(m, out)
		return
	}
	switch {
	case j.in[operator.Left].sources.Contains(m.Sources):
		j.resumeTypeI(j.in[operator.Left], m, out)
	case j.in[operator.Right].sources.Contains(m.Sources):
		j.resumeTypeI(j.in[operator.Right], m, out)
	default:
		j.resumeTypeII(m, out)
	}
}

// resumeTotal lifts an Ø suspension: propagate upstream first (gathering the
// inputs suppressed there), process them, then reactivate the locally
// diverted arrivals.
func (j *JoinOp) resumeTotal(m *feedback.MNS, out *[]feedback.Deferred) {
	for p := operator.Port(0); p < 2; p++ {
		s := j.in[p]
		j.processUpstream(s, j.upstream(s, feedback.Resume, m, 0), out)
	}
	for p := operator.Port(0); p < 2; p++ {
		s := j.in[p]
		if e, ok := s.black.Take(m); ok {
			j.reactivate(s, e, m, out)
		}
	}
}

// resumeTypeI implements Resume_Production for a Type I MNS: propagate
// upstream first and process the returned inputs, then reactivate the
// entry's suspended tuples with their catch-up scans, their results deferred
// under m.
func (j *JoinOp) resumeTypeI(s *side, m *feedback.MNS, out *[]feedback.Deferred) {
	j.processUpstream(s, j.upstream(s, feedback.Resume, m, 0), out)
	if e, ok := s.black.Take(m); ok {
		j.reactivate(s, e, m, out)
	}
}

// processUpstream feeds inputs returned by an upstream resumption through
// normal processing (diversion check, probe, insert), collecting results. A
// composite that expired while suspended upstream is dropped when stale;
// otherwise it is past its own window here — pairValid inside the probes
// admits exactly the REF-formed pairs, and the expired composite stays
// ephemeral (probe-only). An input deferred under an MNS this operator
// detected skips what the MNS ruled out (ruledOut); the results carry no
// MNS, being nested S_Π to any recovery that collects them.
func (j *JoinOp) processUpstream(s *side, ups []feedback.Deferred, out *[]feedback.Deferred) {
	for _, u := range ups {
		if !j.stale(u.C) {
			j.enter(&probe{input: u.C, port: s.port, under: u.MNS, collect: out, ephemeral: j.expired(u.C)})
		}
	}
}

// reactivate returns an entry's surviving tuples to the active state, their
// results deferred under tag. A tuple that expired while suspended is
// dropped when stale (its results were never demanded) and resumed as an
// ephemeral otherwise.
func (j *JoinOp) reactivate(s *side, e *feedback.Entry, tag *feedback.MNS, out *[]feedback.Deferred) {
	s.black.Release(e)
	for i := range e.Tuples {
		if susp := &e.Tuples[i]; !j.stale(susp.E.C) {
			j.resume(s, susp, tag, out)
		}
	}
}

// resume takes one parked tuple through the exactly-once catch-up join
// (opposite sequence beyond its cursor, over both the opposite state and
// blacklists) and back into the active state — or, when its own window has
// closed meanwhile, as an ephemeral into the graveyard, like a state entry
// purged at window close: a later recovery emission on the opposite side may
// still form a REF-valid pair with it (probeGrave). tag is an MNS the tuple
// was parked under: every result it builds carries its signature.
func (j *JoinOp) resume(s *side, susp *feedback.Suspended, tag *feedback.MNS, out *[]feedback.Deferred) {
	j.ctr.Resumed++
	j.trace.Resume(j.name, 1)
	j.activate(&probe{input: susp.E.C, port: s.port, seq: susp.E.Seq, susp: susp, tag: tag, collect: out,
		ephemeral: j.expired(susp.E.C)})
}

// resumeTypeII dissolves an origin entry and generates its suppressed pairs
// exactly once, deferred under m.
func (j *JoinOp) resumeTypeII(m *feedback.MNS, out *[]feedback.Deferred) {
	if e, ok := j.marks.Take(m); ok {
		j.unmarkCatchup(e, m, out)
	}
}

// unmarkCatchup generates the pairs that were suppressed while the origin was
// active — exactly the entry's recorded pending pairs, each of which joins,
// so none is evaluated again. A pair still covered by another active origin
// is deferred to that entry; a pair whose endpoint is an in-flight probe that
// will still reach the partner live is left to that scan. Generation is
// deduplicated per pair. The entry has already left the table, so it covers
// nothing now. Both endpoints of a pair carry the entry's side signatures, so
// each result carries its signature and is deferred under tag, an MNS with
// it.
func (j *JoinOp) unmarkCatchup(e *feedback.OriginEntry, tag *feedback.MNS, out *[]feedback.Deferred) {
	gen := make(map[[2]uint64]bool, len(e.Pending))
	for _, p := range e.Pending {
		key := [2]uint64{p.L.Seq, p.R.Seq}
		if gen[key] {
			continue
		}
		gen[key] = true
		if j.stale(p.L.C) || j.stale(p.R.C) {
			// An expired endpoint nobody demanded.
			continue
		}
		// If either endpoint is an in-flight probing input whose paused
		// scan has not yet reached the partner's slot, the live scan will
		// generate the pair itself once the origin is gone.
		if g := j.frameOf(p.L.C); g != nil && g.lastPartner < p.R.Seq {
			continue
		}
		if g := j.frameOf(p.R.C); g != nil && g.lastPartner < p.L.Seq {
			continue
		}
		if other := j.suppressor(p.L.C, p.R.C); other != nil {
			// Still covered by another active origin: defer the pair there.
			j.suppress(other, p.L, p.R)
			continue
		}
		j.ctr.CatchUpJoins++
		*out = append(*out, feedback.Deferred{C: j.result(p.L.C, p.R.C), MNS: tag})
	}
	j.marks.Release(e)
}

// fireExpired is the recovery half of Sweep: expired mark entries run their
// unmark catch-up, and expired MNS anchors release their surviving suspended
// tuples (which re-enter processing and, if still unmatched, are
// re-suspended under fresh anchors by the downstream consumer). See
// DESIGN.md §2 (expiry sweep). Each batch is deferred under its entry's MNS.
func (j *JoinOp) fireExpired() {
	for _, e := range j.marks.TakeExpired(j.now) {
		var out []feedback.Deferred
		j.unmarkCatchup(e, e.MNS, &out)
		j.emitAll(out)
	}
	for p := operator.Port(0); p < 2; p++ {
		s := j.in[p]
		for _, e := range s.black.TakeExpired(j.now) {
			var out []feedback.Deferred
			j.reactivate(s, e, e.MNS, &out)
			j.emitAll(out)
		}
	}
}

func (j *JoinOp) emitAll(out []feedback.Deferred) {
	for _, d := range out {
		j.emit(d)
	}
}

// NoDeadline is the sentinel NextDeadline returns when the operator has no
// pending timer work: nothing it stores can expire, so Sweep is a no-op at
// any time and the engine schedules no timer event for it (DESIGN.md §4).
const NoDeadline = feedback.NoExpiry

// NextDeadline implements the deadline contract of DESIGN.md §4: it returns
// the earliest application time at which Sweep(now) would have any effect —
// the minimum over every expiry the sweep acts on. For a time t strictly
// below the returned deadline, Sweep(t) is exactly a no-op (no purge, no
// reactivation, no counter movement), which is what lets the engine skip it.
// The components:
//
//   - window expiry of stored state tuples (both sides): min MinTS + w,
//   - blacklist anchor expiry (both sides): suspended tuples reactivate,
//   - window expiry of suspended (parked) tuples: min MinTS + w,
//   - MNS buffer expiry (both sides): forgotten demands are purged,
//   - mark origin expiry: unmark catch-up generates pending pairs,
//   - window expiry of pending suppressed-pair endpoints: min MinTS + w
//     (pendingDeadline: a purge event in legacy mode only).
//
// The underlying minima are cached (state.MinCache) but always exact: every
// structure owns the expiries it schedules on, so none is raised behind its
// cache's back. REF operators report NoDeadline: their Sweep is
// unconditionally a no-op.
func (j *JoinOp) NextDeadline() stream.Time {
	if !j.mode.enabled() {
		return NoDeadline
	}
	d := NoDeadline
	for p := 0; p < 2; p++ {
		s := j.in[p]
		if ts, ok := s.st.MinTS(); ok && ts+j.window < d {
			d = ts + j.window
		}
		if e := s.black.NextExpiry(); e < d {
			d = e
		}
		if ts, ok := s.black.ParkedMinTS(); ok && ts+j.window < d {
			d = ts + j.window
		}
		if e := s.buf.NextExpiry(); e < d {
			d = e
		}
	}
	if e := j.marks.NextExpiry(); e < d {
		d = e
	}
	return min(d, j.pendingDeadline())
}

// mnsMatches reports whether c falls under m: Ø covers everything, any other
// MNS the tuples carrying its value signature (generalization, Sec. IV-B).
func (j *JoinOp) mnsMatches(m *feedback.MNS, c *stream.Composite) bool {
	if m.IsEmpty() {
		return true
	}
	j.ctr.Comparisons += uint64(len(m.Sig))
	return m.Sig.MatchedBy(c)
}

// frameOf returns the in-flight probe frame whose input is exactly c, if
// any — the composite is then not yet inserted into its state and its scan
// position (lastPartner) determines which pairs it will still produce live.
func (j *JoinOp) frameOf(c *stream.Composite) *probe {
	for i := len(j.frames) - 1; i >= 0; i-- {
		if j.frames[i].input == c {
			return j.frames[i]
		}
	}
	return nil
}

// topFrameOn returns the innermost in-flight probe frame on the given port.
func (j *JoinOp) topFrameOn(p operator.Port) *probe {
	for i := len(j.frames) - 1; i >= 0; i-- {
		if j.frames[i].port == p {
			return j.frames[i]
		}
	}
	return nil
}

func stateEntryOf(f *probe) state.Entry {
	return state.Entry{C: f.input, Seq: f.seq}
}
