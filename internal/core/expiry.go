package core

import (
	"repro/internal/feedback"
	"repro/internal/operator"
	"repro/internal/state"
	"repro/internal/stream"
)

// This file is the one seam between the operator's two window-close
// semantics (DESIGN.md §4). Legacy — the paper's 2008 prototype, which the
// figure reproductions measure — drops a suspended result nobody demanded by
// the time its window closes. Exact — drained and served runs — delivers
// every result REF formed live: recoveries at an expiry boundary run before
// the purge, a parked tuple gets a last gasp when its own window closes,
// purged state retires to a graveyard that late recovery emissions still
// probe, and pairValid replaces "expired → skip" as the admission rule.
//
// The rest of the package never names the flag. It asks five questions,
// answered here: stale (may a recovery probe skip this stored tuple), enter
// (Process_Input order), Sweep and purge (what window close does, in which
// order, and whether expired state is retired or dropped), and
// pendingDeadline (whether a suppressed pair's window close is a timer
// event). The mechanism exact mode adds follows them, top to bottom.

// SetExact toggles exact-delivery recovery. plan.Built.SetExact fans it out
// across the wired tree: on for drained and served runs, where every
// suspended result must resume or expire by the horizon; off (the default)
// reproduces the paper prototype's drop-at-expiry semantics bit for bit.
func (j *JoinOp) SetExact(on bool) { j.exact = on }

// expired reports whether c's own window has closed at the operator clock.
func (j *JoinOp) expired(c *stream.Composite) bool { return c.MinTS+j.window <= j.now }

// stale reports whether a recovery path may skip stored tuple c outright,
// before charging a catch-up join. Legacy: yes once c has expired — its
// results were never demanded. Exact: never; the pair-level pairValid inside
// the join decides, so pairs formed live with an expired tuple still surface.
func (j *JoinOp) stale(c *stream.Composite) bool { return !j.exact && j.expired(c) }

// enter runs one new input through Process_Input in the mode's order.
// Legacy checks the blacklist first (the a2 fast path, Sec. IV-B): a diverted
// arrival does no work at all. Exact follows the paper's order — the MNS
// buffer probe (resumption trigger) first, so an arrival that both satisfies
// a pending demand and matches a blacklist signature still fires the
// resumption before activate diverts it (divertCheck).
func (j *JoinOp) enter(f *probe) {
	if j.exact {
		f.divertCheck = true
	} else if j.divert(f.input, f.port, 0) {
		return
	}
	j.activate(f)
}

// Sweep is called by the engine when the operator's deadline is due (or
// before each arrival): expired mark entries run their unmark catch-up and
// expired MNS anchors release their surviving suspended tuples (fireExpired;
// DESIGN.md §2, expiry sweep). The legacy sweep garbage-collects first, so
// those recoveries meet only what is still inside its window. The exact
// sweep runs them before purging, so pairs whose generation was deferred to
// an expiry boundary are produced while their partners are still reachable,
// adds the last gasp, and ends by dropping what the graveyard no longer owes.
func (j *JoinOp) Sweep(now stream.Time) {
	if now > j.now {
		j.now = now
	}
	if !j.mode.enabled() {
		return
	}
	if !j.exact {
		j.purge()
		j.fireExpired()
		return
	}
	j.fireExpired()
	j.lastGasp()
	j.purge()
	j.expireGrave()
}

// purge applies window expiry to every stored structure, charging the work
// to the Purged counter. With feedback on, the mode makes one choice per
// call. Legacy drops: expired state entries, parked tuples and pending
// suppressed pairs are fruitless partial results. Exact retires the state
// entries instead — a parked tuple elsewhere in the plan can still release a
// late composite whose REF-valid partners expired here first, and the
// graveyard keeps them reachable for probeGrave until expireGrave proves
// nothing deferred can pair with them — and leaves parked tuples to the last
// gasp and pending pairs to their mark's unmark: both were formed live and
// stay deliverable. Without feedback (REF) nothing is ever parked, every
// input arrives at the operator clock, and no reader could reach a retired
// entry: state stays bounded by the window.
func (j *JoinOp) purge() {
	fb := j.mode.enabled()
	retire := fb && j.exact
	drop := fb && !retire
	for p := 0; p < 2; p++ {
		s := j.in[p]
		var gone func(state.Entry)
		if retire {
			gone = s.grave.Reinsert
			if j.shadow != nil {
				gone = j.shadow.retirer(s)
			}
		}
		n := s.st.Purge(j.now, j.window, gone)
		j.ctr.Purged += uint64(n)
		if n > 0 && s.blooms != nil {
			j.bloomNoteDeletes(s, n)
		}
		if drop {
			j.ctr.Purged += uint64(len(s.black.TakeExpiredTuples(j.now, j.window)))
		}
		if fb {
			s.buf.Purge(j.now, j.in[1-p].seq.Watermark())
		}
	}
	if drop && !j.marks.Empty() {
		j.ctr.Purged += uint64(j.marks.PurgePending(j.now, j.window))
	}
}

// pendingDeadline is NextDeadline's term for pending suppressed pairs. In
// legacy mode their window expiry is a purge event; exact mode retains them
// until their mark's unmark catch-up (a deadline NextDeadline already
// covers), so they set no timer of their own.
func (j *JoinOp) pendingDeadline() stream.Time {
	if !j.exact {
		if ts, ok := j.marks.NextPendingMinTS(); ok {
			return ts + j.window
		}
	}
	return NoDeadline
}

// lastGasp is the exact sweep's extra step: a parked tuple whose own window
// closes under a still-live anchor can never be demanded again (any future
// pair would violate the window span), so its deferred pairs are generated
// now — exactly the pairs REF formed while it sat suspended — and the tuple
// is dropped from the blacklist (resume, finding it expired, retires it to
// the graveyard).
func (j *JoinOp) lastGasp() {
	for p := operator.Port(0); p < 2; p++ {
		s := j.in[p]
		taken := s.black.TakeExpiredTuples(j.now, j.window)
		for i := range taken {
			j.ctr.Purged++
			var out []feedback.Deferred
			j.resume(s, &taken[i].Suspended, taken[i].MNS, &out)
			j.emitAll(out)
		}
	}
}

// pairValid reports whether joining a and b respects the sliding window:
// the result's constituents all lie within one window span. Live probes
// satisfy it by construction (states are purged before probing, so a stored
// partner is joinable exactly when the span holds); exact-mode recovery
// paths join against structures that can still hold expired tuples, where
// this check admits exactly the pairs REF formed live and nothing more.
func (j *JoinOp) pairValid(a, b *stream.Composite) bool {
	return max(a.TS, b.TS) < min(a.MinTS, b.MinTS)+j.window
}

// probeGrave joins a late input against partners already purged from the
// opposite state (DESIGN.md §4). A composite released by an upstream
// resumption arrives after the operator clock has moved on; the partners REF
// joined it with live may have expired here in the meantime. Only inputs
// with TS < now reach this scan (an in-order arrival fails pairValid against
// every retired entry, since retirement implies MinTS + window <= now <=
// input.TS), and catchUp admits exactly the pairs REF formed. Sequences at or
// below the park-time cursor are covered by the live probe or the pending
// list, so the walk starts after it, and it visits only the retired entries
// sharing the input's equi-key values: the others fail a crossing equi
// predicate, so REF formed no pair with them.
func (j *JoinOp) probeGrave(f *probe, o *side) {
	s := j.in[f.port]
	o.grave.Walk(s.equi.Hash(f.input), f.cursor(), func(e state.Entry) bool {
		if !f.susp.IsDone(e.Seq) {
			j.catchUp(f, s, e)
		}
		return true
	})
	if j.shadow != nil {
		j.shadow.audit(j, f, s, o)
	}
}

// expireGrave drops the retired entries nothing can reach any more. A
// graveyard entry e on one side is read only by a late input c on the other
// that passes pairValid, which needs c.TS < e.MinTS + w; and a composite all
// of whose constituents have arrived reaches this operator late only because
// it contains something deferred — parked or recorded as a suppressed pair —
// on that input's way here, so its timestamp is at least that item's TS. Once
// every deferred item on the way into a port has TS at or past e.MinTS + w,
// no reader of e is left, now or later: whatever arrives from then on
// carries a newer timestamp still. The root also honours the claims of the
// MNSs it detected (claims): an item deferred under one counts only with the
// results it can build below the MNS's detection clock (DESIGN.md §4 has
// both arguments). It runs at the end of Sweep only: the engine calls Sweep
// with no operator on the stack, so nothing is in transit between a
// blacklist and its consumer, which is what makes the floor complete.
func (j *JoinOp) expireGrave() {
	for p := operator.Port(0); p < 2; p++ {
		s := j.in[p]
		if g := j.in[p.Opposite()].grave; !g.Empty() {
			g.Purge(j.inputFloor(s, j.claims(s)), j.window, nil)
		}
		if j.shadow != nil {
			j.shadow.grave[p.Opposite()].Purge(j.inputFloor(s, nil), j.window, nil)
		}
	}
}

// claims is what this operator honours of the MNSs deferred on the way into
// side s: at the root, whose consumer sends no feedback, so that no
// suspension ever parks a tuple there, those it detected on s's inputs that
// still guard. Operators below the root honour none.
func (j *JoinOp) claims(s *side) feedback.Claims {
	if !j.root {
		return nil
	}
	return s.honours
}

// inputFloor bounds what can still read the graveyard opposite input side s,
// for a consumer honouring the claims c: the oldest TS among the tuples
// parked on s here, and the floor of whatever its producer defers. Every
// result still owed through that port contains one of those, so none is
// older.
func (j *JoinOp) inputFloor(s *side, c feedback.Claims) stream.Time {
	f := NoDeadline
	if s.prod != nil {
		f = s.prod.DeferredFloor(c)
	}
	return min(f, s.black.Floor(c, j.in[s.port.Opposite()].prod == nil))
}

// DeferredFloor implements operator.Producer: the floors of both input ports
// and the TS of the results of the pairs suppressed under this operator's
// marks, for a consumer honouring the claims c. Every result still owed
// downstream contains one of those, so none is older.
func (j *JoinOp) DeferredFloor(c feedback.Claims) stream.Time {
	return min(j.inputFloor(j.in[0], c), j.inputFloor(j.in[1], c), j.marks.Floor(c))
}

// graveShadow audits the claims the root honours (tests only: nil in every
// plan, set by an export_test.go hook). It keeps a second graveyard per side,
// filled by every retirement as the first is, but emptied by the floor that
// honours no claim, so it holds everything the claims let go. Every late
// input walks it after the graveyard, with no charge, and miss is told of
// each pair it forms there that pairValid admits and the graveyard no longer
// holds: a result the claims lost.
type graveShadow struct {
	grave [2]*state.State
	miss  func(in, partner *stream.Composite)
	// judged counts the shadow-only entries late inputs reached: the pairs
	// the audit had to judge.
	judged int
}

// retirer is purge's receiver for side s: both graveyards take the entry.
func (g *graveShadow) retirer(s *side) func(state.Entry) {
	return func(e state.Entry) {
		s.grave.Reinsert(e)
		g.grave[s.port].Reinsert(e)
	}
}

// audit walks the shadow of o's graveyard for late input f of side s, as
// probeGrave walks the graveyard.
func (g *graveShadow) audit(j *JoinOp, f *probe, s, o *side) {
	g.grave[o.port].Walk(s.equi.Hash(f.input), f.cursor(), func(e state.Entry) bool {
		if f.susp.IsDone(e.Seq) || o.grave.Holds(e) {
			return true
		}
		g.judged++
		if !j.pairValid(f.input, e.C) {
			return true
		}
		for k := range s.atoms {
			for _, p := range s.atomPreds[k] {
				if !p.Holds(f.input, e.C) {
					return true
				}
			}
		}
		g.miss(f.input, e.C)
		return true
	})
}
