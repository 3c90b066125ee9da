package core

import (
	"slices"

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
// predicate, so REF formed no pair with them, and nothing is charged for
// them.
func (j *JoinOp) probeGrave(f *probe, o *side) {
	s := j.in[f.port]
	o.grave.Walk(s.equi.Hash(f.input), f.cursor(), func(e state.Entry) bool {
		if !f.susp.IsDone(e.Seq) && sameKey(f.input, s, o, e.C) {
			j.catchUp(f, s, e)
		}
		return true
	})
	if j.shadow != nil {
		j.shadow.audit(j, f, s, o)
	}
}

// sameKey reports whether input c of side s agrees with e, stored opposite
// it on o, on every column of the crossing equi-key. Both graveyard readers
// ask it before they charge anything, so that whether an entry of another
// key is still retired — which depends on when a sweep last weighed it
// (valueFloor) — moves no charge; probeGrave's keyed walk meets one only on
// a hash collision.
func sameKey(c *stream.Composite, s, o *side, e *stream.Composite) bool {
	for i, a := range s.equi {
		b := o.equi[i]
		if c.Comp(a.Source).Vals[a.Col] != e.Comp(b.Source).Vals[b.Col] {
			return false
		}
	}
	return true
}

// expireGrave drops the retired entries nothing can reach any more. A
// graveyard entry e on one side is read only by a late input c on the other
// that agrees with e on the crossing equi-key (sameKey) and passes
// pairValid, which needs c.TS < e.MinTS + w; and a composite all of whose
// constituents have arrived reaches this operator late only because it
// contains something deferred — parked or recorded as a suppressed pair — on
// that input's way here, so it carries that item's values and its timestamp
// is at least the item's. Once every deferred item on the way into a port
// that agrees with e on the key columns it fixes has its oldest result at or
// past e.MinTS + w, no reader of e is left, now or later: whatever arrives
// from then on carries a newer timestamp still (valueFloor). The root also
// honours the claims of the MNSs it detected (claims): an item deferred under
// one counts only with the results it can build below the MNS's detection
// clock (DESIGN.md §4 has the arguments). It runs at the end of Sweep only:
// the engine calls Sweep with no operator on the stack, so nothing is in
// transit between a blacklist and its consumer, which is what makes the floor
// complete.
func (j *JoinOp) expireGrave() {
	for p := operator.Port(0); p < 2; p++ {
		s, g := j.in[p], j.in[p.Opposite()].grave
		if !g.Empty() {
			least, n := j.owingOn(s)
			g.Purge(least, j.window, nil)
			f := s.floor
			f.kept = min(f.kept, g.Len())
			if grown := g.Len() - f.kept; grown > 0 && grown*graveWalkRatio >= n+g.Len() {
				top := stream.Time(0)
				g.Scan(func(e state.Entry) bool {
					top = max(top, e.C.MinTS)
					return true
				})
				f.reset(top + j.window)
				j.owedOn(s, j.claims(s), f.below, f.add)
				g.PurgeFloor(j.window, f.at)
				f.kept = g.Len()
			}
		}
		if j.shadow != nil {
			least, _ := j.owingOn(s)
			j.shadow.grave[p.Opposite()].Purge(least, j.window, nil)
		}
	}
}

// graveWalkRatio prices expireGrave's walk: the items are walked, and the
// graveyard weighed entry by entry, only once the entries retired since the
// last walk, times graveWalkRatio, are at least the items plus the entries
// to weigh, so what a walk costs stays proportional to the memory it can
// free. In between, the scalar floor from the caches alone drops entries,
// and the root honours no claim. The value is measured (2-core x86 host,
// median of 3): a walk on every sweep took 4× the wall time of the drained
// left-deep clique cell and 3× that of fig. 10 at w=20; 4 kept more at the
// peak (drained bushy graveyard 174 KB against 38 KB, fig. 10 639 KB
// against 407 KB); 64 kept less but cost fig. 10 about a quarter more wall.
const graveWalkRatio = 16

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

// owedOn reports to visit what can still reach this operator through input
// side s, for a consumer honouring the claims c: the tuples parked on s here,
// and whatever its producer owes. Every result still owed through that port
// contains one of those items.
func (j *JoinOp) owedOn(s *side, c feedback.Claims, below stream.Time, visit feedback.OwedFunc) {
	if s.prod != nil {
		s.prod.Owed(c, below, visit)
	}
	s.black.Owed(c, j.in[s.port.Opposite()].prod == nil, below, visit)
}

// owingOn is owedOn's summary from the caches (operator.Producer.Owing).
func (j *JoinOp) owingOn(s *side) (oldest stream.Time, n int) {
	oldest, n = s.black.Owing()
	if s.prod != nil {
		ts, m := s.prod.Owing()
		oldest, n = min(oldest, ts), n+m
	}
	return oldest, n
}

// Owed implements operator.Producer: what both input ports owe, and the pairs
// suppressed under this operator's Type II origins, for a consumer honouring
// the claims c. Every result still owed downstream contains one of those
// items.
func (j *JoinOp) Owed(c feedback.Claims, below stream.Time, visit feedback.OwedFunc) {
	j.owedOn(j.in[0], c, below, visit)
	j.owedOn(j.in[1], c, below, visit)
	j.marks.Owed(c, below, visit)
}

// Owing implements operator.Producer, summing what Owed would walk.
func (j *JoinOp) Owing() (oldest stream.Time, n int) {
	oldest, n = j.marks.Owing()
	for _, s := range j.in {
		ts, m := j.owingOn(s)
		oldest, n = min(oldest, ts), n+m
	}
	return oldest, n
}

// valueFloor is the floor an input side s puts under the graveyard opposite
// it (DESIGN.md §4, "What the graveyard keeps"). Each item owed on the way
// into s fixes the columns of the crossing equi-key whose sources it holds:
// a parked tuple of s's own sources, or a pending pair over them, fixes every
// column; a tuple parked further up on part of them fixes only that part's.
// The floor keeps, for each set of fixed columns and each value hash on it,
// the oldest lb among the items fixing those values, and apart from them the
// oldest lb among the items that fix no column. A retired entry e of the
// opposite side is read only by a result that carries some item's values and
// is no older than its lb: its floor is the least lb of the items whose
// values it agrees with, and of the keyless ones.
type valueFloor struct {
	// in is s.equi, the columns an item's values are read at; out is the
	// opposite side's equi, the columns an entry's are. Position i of both
	// are one predicate's endpoints.
	in, out state.Key
	window  stream.Time
	// below is what reset was given: items whose lb is at or past it are left
	// out, since no entry it was computed for expires later.
	below stream.Time
	// least is the oldest lb of all, global the oldest of the keyless items.
	least, global stream.Time
	// masks are the column sets some item fixes (bit i for position i), each
	// once; by maps a column set and the hash of the values there to the
	// oldest lb of the items fixing them.
	masks []uint64
	by    map[fixedKey]stream.Time
	// kept is how many entries the graveyard held after the last keyed
	// purge, or after a cheap one since that left fewer: only entries retired
	// since can be freed by walking the items again (expireGrave).
	kept int
	// add and at are the methods bound once, so a sweep allocates no closure.
	add feedback.OwedFunc
	at  func(state.Entry) stream.Time
}

// fixedKey is a set of key columns and the hash of an item's values there.
type fixedKey struct{ mask, h uint64 }

func newValueFloor(in, out state.Key, window stream.Time) *valueFloor {
	f := &valueFloor{in: in, out: out, window: window, by: make(map[fixedKey]stream.Time)}
	f.add, f.at = f.item, f.of
	return f
}

// reset empties the floor for a sweep that weighs entries expiring before
// below.
func (f *valueFloor) reset(below stream.Time) {
	f.below, f.least, f.global = below, NoDeadline, NoDeadline
	f.masks = f.masks[:0]
	clear(f.by)
}

// item files one owed item: a (and b, a pending pair's other half) with the
// oldest result TS it can build. A column whose source the item does not
// hold is not fixed; columns past the 64th are treated as unfixed, which
// only keeps more.
func (f *valueFloor) item(a, b *stream.Composite, lb stream.Time) {
	if lb >= f.below {
		return
	}
	f.least = min(f.least, lb)
	mask, h := uint64(0), uint64(state.FNVOffset)
	for i, c := range f.in[:min(len(f.in), 64)] {
		t := a.Comp(c.Source)
		if t == nil && b != nil {
			t = b.Comp(c.Source)
		}
		if t != nil {
			mask |= 1 << uint(i)
			h = state.FoldValue(h, t.Vals[c.Col])
		}
	}
	if mask == 0 {
		f.global = min(f.global, lb)
		return
	}
	k := fixedKey{mask, h}
	old, ok := f.by[k]
	if !ok {
		if !slices.Contains(f.masks, mask) {
			f.masks = append(f.masks, mask)
		}
		old = NoDeadline
	}
	f.by[k] = min(old, lb)
}

// of is retired entry e's floor: the least lb among the keyless items and
// the items whose fixed values e carries at the aligned columns. Equal
// values hash alike; a hash collision only keeps e longer.
func (f *valueFloor) of(e state.Entry) stream.Time {
	exp := e.C.MinTS + f.window
	if exp <= f.least || exp > f.global {
		return f.global // dropped, or kept, whatever its key
	}
	floor := f.global
	for _, mask := range f.masks {
		h := uint64(state.FNVOffset)
		for i, c := range f.out[:min(len(f.out), 64)] {
			if mask&(1<<uint(i)) != 0 {
				h = state.FoldValue(h, e.C.Comp(c.Source).Vals[c.Col])
			}
		}
		if lb, ok := f.by[fixedKey{mask, h}]; ok {
			floor = min(floor, lb)
		}
	}
	return floor
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
