package core

import (
	"fmt"
	"sort"

	"repro/internal/feedback"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/predicate"
	"repro/internal/state"
	"repro/internal/stream"
)

// Config assembles a JoinOp.
type Config struct {
	Name       string
	NumSources int
	Window     stream.Time
	// Preds is the full query conjunction; the operator evaluates the
	// subset crossing its two input sides.
	Preds predicate.Conj
	Mode  Mode
	// Account is what the operator charges: in a plan, its own account under
	// the plan's (metrics.Account.Op).
	Account *metrics.Account
	// NextMNS supplies plan-unique MNS identifiers.
	NextMNS func() uint64
	// LeftSources / RightSources are the source sets of the two inputs.
	LeftSources  stream.SourceSet
	RightSources stream.SourceSet
	// Indexed files each side's state under its half of the crossing
	// equi-key, so probes walk only the matching run (DESIGN.md §3). Off,
	// probes scan linearly, as the seed implementation always did.
	Indexed bool
	// LeftProd / RightProd are the upstream producers; nil when the input
	// is a raw source (no feedback possible on that side).
	LeftProd  operator.Producer
	RightProd operator.Producer
}

// side holds everything attached to one input of the join.
type side struct {
	port    operator.Port
	sources stream.SourceSet
	prod    operator.Producer
	seq     *state.Side
	st      *state.State
	black   *feedback.Blacklist
	buf     *feedback.Buffer // MNSs detected on THIS side's inputs
	// equi is THIS side's half of the crossing equi-key
	// (predicate.Conj.EquiKeyCols): position i of the two sides' equi are the
	// two endpoints of the same predicate. The graveyard is filed under it,
	// and inputs arriving here hash their values at it to probe the opposite
	// graveyard. key is equi on an indexed operator and nil otherwise: the
	// state st is filed under it, and inputs probe the opposite state by it.
	equi, key state.Key
	// Lattice atoms for inputs arriving on this side: the input's
	// components that participate in predicates crossing to the opposite
	// side, with the per-atom predicate lists.
	atoms     []stream.SourceID
	atomPreds []predicate.Conj
	// atomAttrs[k] are atom k's own columns in those predicates — the
	// signature attributes an MNS over the atom constrains; attrBuf is
	// buildMNS's scratch for their concatenation.
	atomAttrs [][]predicate.Attr
	attrBuf   []predicate.Attr
	// maskPreds holds the shared crossing-predicate list of each multi-atom
	// mask an MNS was built over (predsOf).
	maskPreds map[uint32]predicate.Conj
	// lookups[k] is how lattice detection finds atom k's partners in the
	// opposite state by value (detect.go); nil for an atom it leaves out.
	lookups    []*atomLookup
	level1Only bool
	detectable bool
	// Bloom filters over THIS side's state values, keyed by attribute;
	// queried when detecting MNSs on the opposite side's inputs.
	blooms *bloomSet
	// grave is the exact-mode graveyard: entries purged from st, and recovery
	// inputs that were already past their window when probed (probeInsert's
	// tail), retained because a late recovery emission (an upstream
	// resumption's catch-up result) may still form pairs REF formed live with
	// them. It is a State filed under equi on every plan, indexed or not, so
	// a late input walks only its own key's run; filled by Reinsert, charged
	// to the plan account's graveyard row, and emptied by expireGrave of what
	// no deferred result can reach any more. Only inputs with TS < now probe
	// it — an in-order arrival fails pairValid against every retired entry by
	// construction. Empty outside exact mode and in modes without feedback
	// (REF), where no input is ever late.
	grave *state.State
	// lat and seen are Identify_MNS's scratch (identifyMNS), reused from one
	// detecting input to the next: the CNS lattice over atoms (nil until the
	// first detection, and for good under level1Only) and the partners whose
	// mask is already observed.
	lat  *lattice.Lattice
	seen map[uint64]struct{}
	// rejected holds the candidates identifyMNS left out for failing
	// pairValid, by the atom whose lookup found them: Ω was decided without
	// them, so an MNS all of whose lookups found one of them claims nothing
	// (feedback.MNS.Seen). voids are their found-by masks, once each
	// (foldRejected). omega is reportMNS's
	// scratch for the list of MNSs it reports, and masks their atom masks:
	// the buffer and the producer's feedback handlers keep the descriptors,
	// never the lists, and a report on this side is over before the next
	// begins.
	rejected []rejection
	voids    []uint32
	omega    []*feedback.MNS
	masks    []uint32
	// reinserted is the side's watermark when a resumption last re-entered
	// its state: a tuple stored with an older sequence, which may never have
	// met an MNS of the opposite buffer that lapsed before it came back
	// (ruledOut).
	reinserted uint64
	// honours tells the MNSs whose claims hold for this side's inputs: those
	// detected here on them that still guard (expiry.go, claims).
	honours feedback.Claims
	// floor is what the items owed on the way into this side let the
	// opposite graveyard keep, rebuilt whenever expireGrave walks them.
	floor *valueFloor
}

// probe is one input's pass through Process_Input (Fig. 6): a fresh arrival,
// a demanded partial result returned from upstream, or a resumption
// (Resume_Production) replaying its parked record. It sits on j.frames while
// it probes, so that re-entrant suspension feedback can park the input
// mid-scan (Sec. III-B).
type probe struct {
	input *stream.Composite
	port  operator.Port
	seq   uint64
	// susp is the parked record a resumption replays — its cursor, the pairs
	// generated while it was parked (Done) and those its cursor claims but it
	// never joined (Pending) — and nil for any other input.
	susp        *feedback.Suspended
	lastPartner uint64 // sequence of the last opposite entry processed
	// under is the MNS the input was deferred under upstream
	// (feedback.Deferred), nil for any other input: when this operator
	// detected it, the probe of the opposite state skips what it ruled out
	// (ruledOut).
	under *feedback.MNS
	// tag is the MNS every result this probe builds is deferred under: set
	// on a resumption, whose results all contain the parked tuple; nil
	// otherwise.
	tag *feedback.MNS
	// collect, when non-nil, receives results instead of downstream emission
	// (resumption responses, Sec. III-A lines 14-17).
	collect *[]feedback.Deferred
	// parkEntry, when set by a suspension received mid-probe, defers the
	// parking of this input until its current probe completes: aborting the
	// scan would strand pairs behind resumption cycles across operators
	// (two mutually-suspended partners each waiting for the other's resume
	// trigger). Completing the probe keeps the cursor claim exact.
	parkEntry *feedback.Entry
	// detect runs Identify_MNS after the probe (fresh arrivals only).
	detect bool
	// divertCheck runs the blacklist diversion check after the MNS buffer
	// probe (set by enter in exact mode): a diverted input skips probe and
	// insertion but demanded upstream results are still processed.
	divertCheck bool
	// ephemeral marks an exact-mode recovery of a tuple past its own window:
	// it probes (generating its deferred pairs) and then rests in the
	// graveyard, neither parked by a mid-probe suspension nor inserted into
	// the state (probeInsert's tail).
	ephemeral bool
	// fullMatch records that some partner satisfied every crossing predicate:
	// no lattice node can be alive, so Identify_MNS is skipped.
	fullMatch bool
}

// cursor is the opposite sequence up to which a resumption was already
// joined when it was parked; 0 for any other input.
func (f *probe) cursor() uint64 {
	if f.susp == nil {
		return 0
	}
	return f.susp.Cursor
}

// JoinOp is a binary sliding-window join with optional JIT machinery. It is
// both a Consumer (of its two inputs) and a Producer (toward its consumer).
type JoinOp struct {
	name   string
	numSrc int
	window stream.Time
	preds  predicate.Conj
	mode   Mode
	// ctr is the operator's own ledger, the only place its work is charged;
	// plan totals are a sum over operators (plan.Built.Totals).
	ctr     metrics.Counters
	acct    *metrics.Account
	nextMNS func() uint64

	consumer operator.Consumer
	outPort  operator.Port
	// deferredTo is consumer when it can use the MNS a recovery was deferred
	// under (operator.DeferredConsumer), nil otherwise.
	deferredTo operator.DeferredConsumer

	// trace is the attached observability layer; nil disables it. The tracer
	// only observes — it never writes anything the counters measure
	// (DESIGN.md §9), and every emission site is nil-safe.
	trace *obs.Tracer

	in     [2]*side
	marks  *feedback.MarkTable
	now    stream.Time
	frames []*probe
	// exact selects exact-delivery over the paper prototype's drop-at-expiry
	// semantics. Only expiry.go reads it: that file states what differs.
	exact bool
	// root is set when the consumer is no operator, so no feedback can
	// suspend this one (SetConsumer).
	root bool
	// shadow audits the graveyard floor in tests (graveShadow); nil
	// otherwise.
	shadow *graveShadow
}

// NewJoin builds a join operator from the configuration.
func NewJoin(cfg Config) *JoinOp {
	if cfg.LeftSources.Intersects(cfg.RightSources) {
		panic(fmt.Sprintf("core: join %q has overlapping inputs", cfg.Name))
	}
	j := &JoinOp{
		name:    cfg.Name,
		numSrc:  cfg.NumSources,
		window:  cfg.Window,
		preds:   cfg.Preds,
		mode:    cfg.Mode,
		acct:    cfg.Account,
		nextMNS: cfg.NextMNS,
	}
	j.marks = feedback.NewMarkTable(cfg.Account)
	// The graveyards are keyed whether or not the states are: a late input
	// probes only its own key's run (DESIGN.md §4).
	lk, rk, _ := cfg.Preds.EquiKeyCols(cfg.LeftSources, cfg.RightSources)
	mk := func(port operator.Port, srcs stream.SourceSet, prod operator.Producer, other stream.SourceSet, equi []predicate.Attr) *side {
		name := fmt.Sprintf("S_%s.%s", cfg.Name, port)
		s := &side{
			port:    port,
			sources: srcs,
			prod:    prod,
			seq:     &state.Side{},
			st:      state.New(name, metrics.MemState, cfg.Account),
			black:   feedback.NewBlacklist(cfg.Account),
			buf:     feedback.NewBuffer(cfg.Account),
			equi:    state.Key(equi),
			grave:   state.New(name+".grave", metrics.MemGraveyard, cfg.Account),
		}
		if cfg.Indexed {
			s.key = s.equi
		}
		s.st.SetKey(s.key)
		s.grave.SetKey(s.equi)
		s.atoms = cfg.Preds.SourcesLinkedTo(srcs, other)
		for _, src := range s.atoms {
			preds := cfg.Preds.TouchingAcross(src, other)
			s.atomPreds = append(s.atomPreds, preds)
			s.atomAttrs = append(s.atomAttrs, cfg.Preds.JoinAttrs(src, other))
			s.lookups = append(s.lookups, newAtomLookup(src, preds))
		}
		s.level1Only = len(s.atoms) > lattice.MaxAtoms
		s.detectable = j.mode.enabled() && prod != nil && prod.CanSuspend() && len(s.atoms) > 0
		if j.mode == DetectBloom {
			s.blooms = new(bloomSet)
		}
		return s
	}
	j.in[operator.Left] = mk(operator.Left, cfg.LeftSources, cfg.LeftProd, cfg.RightSources, lk)
	j.in[operator.Right] = mk(operator.Right, cfg.RightSources, cfg.RightProd, cfg.LeftSources, rk)
	for p := range j.in {
		s, o := j.in[p], j.in[1-p]
		s.honours = func(m *feedback.MNS) bool { return m.Seen == feedback.Guarding && detectedOn(m, s, o) }
		s.floor = newValueFloor(s.equi, o.equi, j.window)
	}
	return j
}

// SetConsumer wires the downstream consumer and the port our outputs feed.
// A consumer that is no operator — a sink or a delivery gate — sends no
// feedback: this join is the plan's root.
func (j *JoinOp) SetConsumer(c operator.Consumer, port operator.Port) {
	j.consumer, j.outPort = c, port
	j.deferredTo, _ = c.(operator.DeferredConsumer)
	_, fed := c.(operator.Producer)
	j.root = !fed
}

// Consumer returns what SetConsumer wired. plan.Built.Reshape reads it off the
// retiring root so the new root feeds the same gate or sink.
func (j *JoinOp) Consumer() operator.Consumer { return j.consumer }

// Name labels the operator: its ledger row (plan.Built.Ops) and trace events.
func (j *JoinOp) Name() string { return j.name }

// SetTrace attaches (or, with nil, detaches) the observability tracer.
// plan.Built.SetTrace fans it out across the wired tree.
func (j *JoinOp) SetTrace(tr *obs.Tracer) { j.trace = tr }

// CanSuspend implements operator.Producer: a join honours feedback unless it
// runs as the REF baseline.
func (j *JoinOp) CanSuspend() bool { return j.mode.enabled() }

// Side exposes internals for white-box tests: the state, blacklist and MNS
// buffer of one port.
func (j *JoinOp) Side(p operator.Port) (*state.State, *feedback.Blacklist, *feedback.Buffer) {
	s := j.in[p]
	return s.st, s.black, s.buf
}

// Counters returns the operator's ledger: everything this operator has been
// charged since it was built, and nothing any other operator did.
func (j *JoinOp) Counters() *metrics.Counters { return &j.ctr }

// SnapshotBase exports the base tuples a source-fed side still holds inside
// the window at the cut — active state entries plus blacklist-parked tuples
// — in ascending sequence order. This is the operator half of the §2
// snapshot cut (DESIGN.md §7): between arrivals, every in-window base tuple
// of a source sits either in its feed side's state or parked in that side's
// blacklist, so the union over a plan's feed ports reconstructs the exact
// in-window arrival history a reshaped plan (or a restored checkpoint) must
// replay. Panics if the side is not source-fed (its composites would
// be intermediates, which a different plan shape cannot adopt).
func (j *JoinOp) SnapshotBase(p operator.Port, cut stream.Time) []*stream.Tuple {
	s := j.in[p]
	if s.prod != nil {
		panic(fmt.Sprintf("core: SnapshotBase on non-leaf port %v of %s", p, j.name))
	}
	var out []*stream.Tuple
	add := func(c *stream.Composite) {
		if c.MinTS+j.window <= cut {
			return // expired at the cut; a purge would drop it
		}
		ids := c.Sources.IDs()
		if len(ids) != 1 {
			panic(fmt.Sprintf("core: composite %v on leaf port of %s", c.Sources, j.name))
		}
		out = append(out, c.Comp(ids[0]))
	}
	for _, e := range s.st.SnapshotLive(cut, j.window) {
		add(e.C)
	}
	for _, entry := range s.black.List() {
		for i := range entry.Tuples {
			add(entry.Tuples[i].E.C)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Consume implements operator.Consumer: the Process_Input procedure of
// Fig. 6 with the blacklist diversion of arrivals whose signature is already
// suspended (Sec. IV-B), in the order enter chooses.
func (j *JoinOp) Consume(c *stream.Composite, port operator.Port) {
	j.ConsumeDeferred(feedback.Deferred{C: c}, port)
}

// ConsumeDeferred implements operator.DeferredConsumer: Consume for a
// recovery the producer emits with the MNS it was deferred under.
func (j *JoinOp) ConsumeDeferred(d feedback.Deferred, port operator.Port) {
	if d.C.TS > j.now {
		j.now = d.C.TS
	}
	j.purge()
	j.enter(&probe{input: d.C, port: port, under: d.MNS, detect: true})
}

// activate runs purge-probe-insert for one input, with the JIT additions:
// MNS-buffer probe and resumption (lines 1-9 of Process_Input), detection
// and suspension feedback (lines 11-12), and S_Π processing (lines 14-17).
func (j *JoinOp) activate(f *probe) {
	s, o := j.in[f.port], j.in[f.port.Opposite()]
	if f.susp == nil {
		f.seq = s.seq.Next()
	}

	// Probe the opposite MNS buffer and issue resumption feedback.
	var spi []feedback.Deferred
	if j.mode.enabled() && o.buf.Len() > 0 {
		matched, n := o.buf.Probe(f.input, f.seq)
		j.ctr.Comparisons += uint64(n)
		if len(matched) > 0 && o.prod != nil {
			j.ctr.Feedbacks++
			spi = o.prod.Feedback(feedback.Message{Cmd: feedback.Resume, MNS: matched})
		}
	}

	// Exact-mode diversion: runs after the buffer probe (the resumption
	// trigger always fires first, Process_Input lines 1-9), parking the
	// input without a probe when it matches a blacklist signature. The
	// demanded upstream results below are processed either way.
	if !f.divertCheck || f.ephemeral || !j.divert(f.input, f.port, f.seq) {
		j.probeInsert(f, s, o)
	}

	// Process S_Π: the demanded partial results returned by the producer.
	// Each is a brand-new input on the opposite side. Those built directly
	// under a matched MNS carry its Seen claim, t's sequence less one, so
	// their probe joins t and what followed it — the paper's "join t with
	// S_Π" — and skips the tuples the MNS ruled out; the rest probe in full
	// (ruledOut, DESIGN.md §2). Either way cascaded resumption and mark
	// bookkeeping stay uniform.
	j.processUpstream(o, spi, f.collect)
}

// probeInsert is the probe-and-insert body of activate: state/blacklist/
// pending probes, detection, and the input's coming to rest (blacklist,
// graveyard or state).
func (j *JoinOp) probeInsert(f *probe, s, o *side) {
	// detecting says Identify_MNS runs for this input, after the probe and only
	// if the probe found no full match.
	detecting := f.detect && s.detectable

	// Probe the opposite state (and, for a resumption, the blacklists, the
	// pending partners and any in-flight opposite input). The state walk
	// starts after the cursor, or after what the MNS the input was deferred
	// under ruled out.
	f.lastPartner = max(f.cursor(), j.ruledOut(f, s, o))
	j.frames = append(j.frames, f)
	j.probeState(f, s, o)
	if f.susp != nil {
		j.probeBlacklists(f, o)
		j.probePending(f, o)
	}
	if f.input.TS < j.now && (!o.grave.Empty() || j.shadow != nil) {
		j.probeGrave(f, o)
	}
	if f.susp != nil {
		// A reactivation can happen re-entrantly while an opposite input is
		// mid-probe (a resumption cascade triggered from that input's own
		// emission chain). If the in-flight scan has already passed this
		// tuple's (old) sequence slot, neither side would ever produce the
		// pair — generate it here, exactly once.
		j.probeInFlight(f, o)
	}
	j.frames = j.frames[:len(j.frames)-1]

	// Identify_MNS and suspension feedback. A full match means no node of
	// the lattice can be alive, so detection is skipped (Fig. 8 semantics
	// at zero cost).
	if detecting && !f.fullMatch {
		j.reportMNS(f, s, o)
	}

	// The probed input comes to rest — the one place it does, in exactly one
	// of three stores (DESIGN.md §4). An ephemeral recovery is past its own
	// window: it can never join a future arrival, and parking it would re-arm
	// an already-due deadline forever, so it retires to the graveyard, where
	// the results its probe demanded upstream (processUpstream, next) and any
	// later recovery emission on the opposite side still find it.
	se := stateEntryOf(f)
	if f.ephemeral {
		s.grave.Reinsert(se)
		if j.shadow != nil {
			j.shadow.grave[s.port].Reinsert(se)
		}
		return
	}
	// A suspension received mid-probe parks the input now that its probe is
	// complete (cursor = full opposite watermark), unless the entry has
	// already been resumed or expired in the meantime.
	if f.parkEntry != nil {
		if cur, ok := s.black.Entry(f.parkEntry.MNS); ok && cur == f.parkEntry {
			cursor := o.seq.Watermark()
			j.park(s, f.parkEntry, feedback.Suspended{E: se, Cursor: cursor, Pending: uncovered(o, f.seq, cursor)})
			return
		}
	}
	// Otherwise it joins the active state.
	s.st.Reinsert(se)
	if f.susp != nil {
		s.reinserted = s.seq.Watermark()
	}
	j.ctr.Inserted++
	if s.blooms != nil {
		j.bloomInsert(s, f.input)
	}
}

// divert checks an arrival against the side's blacklist signatures and
// parks it on a hit (the a2 fast path, Sec. IV-B); it reports whether the
// tuple was diverted. seq is the input's pre-drawn sequence number, or 0 to
// draw one on a hit.
func (j *JoinOp) divert(c *stream.Composite, port operator.Port, seq uint64) bool {
	s := j.in[port]
	if !j.mode.enabled() || s.black.Len() == 0 {
		return false
	}
	e, n := s.black.MatchArrival(c, j.now)
	j.ctr.Comparisons += uint64(n)
	if e == nil {
		return false
	}
	if seq == 0 {
		seq = s.seq.Next()
	}
	j.park(s, e, feedback.Suspended{E: state.Entry{C: c, Seq: seq}, Cursor: 0})
	return true
}

// park moves one tuple into a blacklist entry of side s and counts the
// suspension.
func (j *JoinOp) park(s *side, e *feedback.Entry, t feedback.Suspended) {
	s.black.Park(e, t)
	j.ctr.Suspended++
	j.trace.Suspend(j.name, 1)
}

// ruledOut is the opposite sequence through which f's state probe may skip:
// the Seen claim of the MNS f.input was deferred under (DESIGN.md §2, "What
// an MNS rules out"), capped at the opposite watermark, or 0. The claim
// counts this operator's opposite sequences only when the MNS was detected
// here on f's side (detectedOn). Any input is walked in full once a
// resumption has re-entered the opposite state at or after the claim's
// sequence: its tuple, stored with an older sequence, may have come back
// after the MNS left the buffer, unchecked.
func (j *JoinOp) ruledOut(f *probe, s, o *side) uint64 {
	m := f.under
	if m == nil || m.Seen == 0 || o.reinserted >= m.Seen || !detectedOn(m, s, o) {
		return 0
	}
	return min(m.Seen, o.seq.Watermark())
}

// detectedOn reports whether m was detected at this operator on an input of
// side s, opposite o, which its predicates tell: each crossing predicate is
// evaluated at one join of the plan, so an MNS relayed from a consumer
// further down the chain, or one with none (Ø, a selection's), was not.
func detectedOn(m *feedback.MNS, s, o *side) bool {
	if len(m.Preds) == 0 {
		return false
	}
	p := m.Preds[0]
	return s.sources.Has(p.Left) && o.sources.Has(p.Right) || s.sources.Has(p.Right) && o.sources.Has(p.Left)
}

// probeState probes the opposite state beyond the probe's cursor in ascending
// sequence order, evaluating the crossing predicates pair by pair — REF's
// probe, whether or not Identify_MNS follows it.
//
// The probe walks only the opposite entries filed under the input's key
// hash — the indexed fast path of DESIGN.md §3; over a state with no key,
// that is every entry. Skipped entries differ from the input on some equi
// column, so they can neither produce results nor change the probe's cursor
// claims (a pair that fails its equi predicates needs no exactly-once
// bookkeeping: there is nothing to generate); hash collisions are rejected
// by the predicate evaluation inside joinPair.
//
// The walk is resilient to re-entrant state mutations (suspension feedback
// triggered by emitted results): state.Walk resumes after the last sequence
// visited.
func (j *JoinOp) probeState(f *probe, s, o *side) {
	j.ctr.Probes++
	if j.trace != nil {
		// Explicit guard: the scan-bound argument costs a state read.
		j.trace.Probe(j.name, o.st.Len(), f.seq)
	}
	o.st.Walk(s.key.Hash(f.input), f.lastPartner, func(e state.Entry) bool {
		f.lastPartner = e.Seq
		// Done lists pairs generated during this tuple's suspension.
		if !f.susp.IsDone(e.Seq) {
			j.joinPair(f, s, e)
		}
		return true
	})
}

// catchUp joins a recovering input — a resumption, or an input arriving late
// — with partner e on one of the recovery paths below, and charges it as a
// catch-up join. A pair outside one window span is neither: REF never formed
// it, so it is not recovery work (pairValid). Origins suppress only live
// probes, so a catch-up pair is evaluated and built. It reports whether a
// result was built.
func (j *JoinOp) catchUp(f *probe, s *side, e state.Entry) bool {
	if !j.pairValid(f.input, e.C) {
		return false
	}
	j.ctr.CatchUpJoins++
	if !j.evalAtoms(f.input, s, e.C) {
		return false
	}
	j.deliver(f, e)
	return true
}

// probeBlacklists performs the catch-up part of resumption: suspended
// opposite tuples beyond the cursor are joined too, so that pairs whose
// both endpoints were suspended are generated exactly once (DESIGN.md §2).
// Entries incompatible with the probing input's equi-key are skipped whole
// (entrySkip), the blacklist leg of the indexed probing of DESIGN.md §3.
func (j *JoinOp) probeBlacklists(f *probe, o *side) {
	s, cursor := j.in[f.port], f.cursor()
	o.black.Walk(func(entry *feedback.Entry) {
		if j.entrySkip(f, s, o, entry) {
			return
		}
		for i := range entry.Tuples {
			w := &entry.Tuples[i]
			if w.E.Seq <= cursor || j.stale(w.E.C) || f.susp.IsDone(w.E.Seq) {
				continue
			}
			if j.catchUp(f, s, w.E) {
				// The pair is produced now, while the partner is still
				// suspended; its own resumption must not regenerate it.
				w.MarkDone(f.seq)
			}
		}
	})
}

// entrySkip reports whether every tuple parked under the blacklist entry is
// guaranteed to fail the crossing equi predicates against f.input. All
// parked tuples share the entry signature's values (they matched it on
// diversion, or are super-tuples of its anchor), so for each aligned key
// column pair (s.key[i], o.key[i]) whose opposite column the signature
// constrains, one value comparison rejects the whole entry. Ø entries have
// empty signatures and are never skipped; rejected pairs need no exactly-
// once bookkeeping because no result exists for them (DESIGN.md §3).
func (j *JoinOp) entrySkip(f *probe, s, o *side, entry *feedback.Entry) bool {
	if len(s.key) == 0 || len(entry.MNS.Sig) == 0 {
		return false
	}
	for i, oa := range o.key {
		v, ok := entry.MNS.Sig.Lookup(oa)
		if !ok {
			continue
		}
		t := f.input.Comp(s.key[i].Source)
		if t == nil {
			continue
		}
		j.ctr.Comparisons++
		if t.Vals[s.key[i].Col] != v {
			return true
		}
	}
	return false
}

// suppressor returns the active origin that suppresses the joining pair of
// left input l and right input r, or nil, charging its lookups
// (feedback.MarkTable.Suppressing).
func (j *JoinOp) suppressor(l, r *stream.Composite) *feedback.OriginEntry {
	e, n := j.marks.Suppressing(l, r)
	j.ctr.Comparisons += uint64(n)
	return e
}

// suppress counts one suppressed pair and parks it in the covering origin
// entry's pending list for generation at unmark.
func (j *JoinOp) suppress(e *feedback.OriginEntry, l, r state.Entry) {
	j.ctr.SuppressedPairs++
	j.marks.RecordSuppressed(e, l, r)
}

// probePending generates the pairs recorded as uncovered at park time. Each
// pending partner lives in exactly one store: still parked in the opposite
// blacklist (deduplicated against Done in both directions), back in the
// opposite state, retired to its graveyard, or gone. The graveyard is asked
// only for a partner of the input's own equi-key, as probeGrave's keyed walk
// asks it: another forms no pair, and whether the graveyard still holds one
// depends on when a sweep last weighed it (expireGrave).
func (j *JoinOp) probePending(f *probe, o *side) {
	s := j.in[f.port]
	for _, p := range f.susp.Pending {
		if f.susp.IsDone(p.Seq) || j.stale(p.C) {
			continue
		}
		if w := o.black.BySeq(p.Seq); w != nil {
			if !w.IsDone(f.seq) && j.catchUp(f, s, w.E) {
				w.MarkDone(f.seq)
			}
		} else if o.st.Holds(p) || sameKey(f.input, s, o, p.C) && o.grave.Holds(p) {
			j.catchUp(f, s, p)
		}
	}
}

// probeInFlight joins a reactivated tuple with in-flight opposite inputs
// whose scans have already passed its sequence slot (state.Walk resumes after
// the last sequence it visited, so they would skip the reinserted tuple
// forever).
func (j *JoinOp) probeInFlight(f *probe, o *side) {
	for _, g := range j.frames {
		if g == f || g.port != o.port {
			continue
		}
		if g.seq <= f.cursor() || g.lastPartner < f.seq {
			// Covered by the cursor claim, or the in-flight scan has not
			// reached this tuple's slot yet and will see it in the state.
			continue
		}
		if f.susp.IsDone(g.seq) || g.susp.IsDone(f.seq) {
			continue
		}
		j.catchUp(f, j.in[f.port], stateEntryOf(g))
	}
}

// joinPair evaluates one (input, partner) pair of the live state probe:
// window admission, predicate evaluation, then Type II suppression or result
// construction. Origins suppress the pairs of a fresh input only; a
// resumption is generating pairs that were deferred already.
func (j *JoinOp) joinPair(f *probe, s *side, e state.Entry) {
	if !j.pairValid(f.input, e.C) {
		// A resumption against a partner outside the pair's window span
		// (exact mode only; every pair a legacy probe reaches is valid): REF
		// never formed this pair, so neither bookkeeping nor generation may
		// happen.
		return
	}
	if !j.evalAtoms(f.input, s, e.C) {
		return
	}
	if f.susp == nil && !j.marks.Empty() {
		l, r := stateEntryOf(f), e
		if f.port == operator.Right {
			l, r = r, l
		}
		if oe := j.suppressor(l.C, r.C); oe != nil {
			// The pair joins, but its result waits for the origin's unmark.
			f.fullMatch = true
			j.suppress(oe, l, r)
			return
		}
	}
	j.deliver(f, e)
}

// deliver builds the result of a fully matching pair and hands it on: to the
// probe's collection when it has one, downstream otherwise.
func (j *JoinOp) deliver(f *probe, e state.Entry) {
	f.fullMatch = true
	d := feedback.Deferred{C: j.result(f.input, e.C), MNS: f.tag}
	if f.collect != nil {
		*f.collect = append(*f.collect, d)
		return
	}
	j.emit(d)
}

// result builds and counts the join of a fully matching pair.
func (j *JoinOp) result(a, b *stream.Composite) *stream.Composite {
	j.ctr.Results++
	return stream.Join(a, b)
}

// emit delivers a result downstream, with the MNS it was deferred under to
// a consumer that can use it. Emission may re-enter this operator with
// feedback (the consumer processes the result immediately in the pipelined
// engine and may detect an MNS on it).
func (j *JoinOp) emit(d feedback.Deferred) {
	switch {
	case d.MNS != nil && j.deferredTo != nil:
		j.deferredTo.ConsumeDeferred(d, j.outPort)
	case j.consumer != nil:
		j.consumer.Consume(d.C, j.outPort)
	}
}

// evalAtoms evaluates the crossing predicates between input c (on side s)
// and partner v atom by atom, stopping at the first that fails — REF's
// nested-loop cost — and reports whether every atom matched.
func (j *JoinOp) evalAtoms(c *stream.Composite, s *side, v *stream.Composite) bool {
	for k := range s.atoms {
		if !j.atomHolds(c, s, k, v) {
			return false
		}
	}
	return true
}

// atomHolds evaluates atom k's predicates between input c and partner v up to
// the first that fails, one comparison charged for each.
func (j *JoinOp) atomHolds(c *stream.Composite, s *side, k int, v *stream.Composite) bool {
	for _, p := range s.atomPreds[k] {
		j.ctr.Comparisons++
		if !p.Holds(c, v) {
			return false
		}
	}
	return true
}

func (j *JoinOp) String() string {
	return fmt.Sprintf("%s(%v⋈%v)", j.name, j.in[0].sources, j.in[1].sources)
}
