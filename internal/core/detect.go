package core

import (
	"sort"

	"repro/internal/bloom"
	"repro/internal/feedback"
	"repro/internal/lattice"
	"repro/internal/operator"
	"repro/internal/predicate"
	"repro/internal/state"
	"repro/internal/stream"
)

// detectCtx accumulates per-partner observations for lattice-based MNS
// detection; it only exists for DetectLattice (DOE needs no per-pair work
// and Bloom detection queries filters after the probe).
type detectCtx struct {
	lat     *lattice.Lattice // nil when falling back to Level-1 only
	charged uint64           // lat.Ops() already on the operator's ledger
	ever    uint32           // union of matched atoms (Level-1 fallback)
	atoms   int
	full    uint32 // every atom's bit
	// saturated is set by a fully matching partner: nothing is left alive, so
	// the rest of the probe neither observes nor reports.
	saturated bool
}

// newDetect prepares the side's detection context for one fresh input. The
// context and its lattice are reused from input to input: only Consume
// detects, and an operator's Consume never runs while one of its own probes
// is on the stack — what comes back up from a probe's emission is feedback,
// whose resumptions collect their results instead of emitting them.
func (j *JoinOp) newDetect(s *side) *detectCtx {
	if j.mode.Detect != DetectLattice || len(s.atoms) == 0 {
		return nil
	}
	d := &s.det
	d.ever, d.saturated = 0, false
	if d.lat != nil {
		d.lat.Reset()
	} else if !s.level1Only {
		d.lat = lattice.New(len(s.atoms))
	}
	return d
}

// charge moves the lattice's visits since the last call onto j's ledger.
func (d *detectCtx) charge(j *JoinOp) {
	ops := d.lat.Ops()
	j.ctr.LatticeNodes += ops - d.charged
	d.charged = ops
}

// observe feeds one partner's matched-atom mask into the context. The
// Level-1 fallback keeps its m nodes in one word: a visit to test the mask
// against it, m more when the mask adds to it.
func (d *detectCtx) observe(j *JoinOp, mask uint32, full bool) {
	d.saturated = full
	if d.lat != nil {
		d.lat.Observe(mask)
		d.charge(j)
		return
	}
	j.ctr.LatticeNodes++
	if mask&^d.ever != 0 {
		d.ever |= mask
		j.ctr.LatticeNodes += uint64(d.atoms)
	}
}

// moot reports whether a partner that has matched exactly the atoms in
// matched among those below k, and failed atom k, can be dropped unobserved:
// whatever the atoms above k turn out to be, its mask lies within matched
// plus all of them, and no node in there is alive.
func (d *detectCtx) moot(j *JoinOp, matched uint32, k int) bool {
	upper := matched | d.full&^(uint32(2)<<uint(k)-1)
	if d.lat == nil {
		if matched != 0 {
			j.ctr.LatticeNodes++
		}
		return upper&^d.ever == 0
	}
	if matched == 0 {
		return d.lat.Stops(k)
	}
	covered := d.lat.Covered(upper)
	d.charge(j)
	return covered
}

// reportMNS implements the tail of Identify_MNS (Fig. 8) plus feedback
// dispatch: compute the MNS set Ω for input f.input, record it in the MNS
// buffer, and send a suspension feedback to the producer. Called only when
// the probe produced no full match (otherwise no node can be alive).
func (j *JoinOp) reportMNS(f *probeFrame, s, o *side, det *detectCtx) {
	var mnses []*feedback.MNS
	if o.st.Empty() {
		// Fig. 8 line 2: empty opposite state → Ø is the only MNS. This is
		// the DOE special case; the producer suspends entirely.
		mnses = append(mnses, &feedback.MNS{ID: j.nextMNS(), Expiry: feedback.NoExpiry})
	} else {
		switch j.mode.Detect {
		case DetectLattice:
			if det == nil || det.saturated {
				return
			}
			var masks []uint32
			if det.lat != nil {
				masks = det.lat.MNSes()
				det.charge(j)
			} else {
				for k := range s.atoms {
					if det.ever&(1<<uint(k)) == 0 {
						masks = append(masks, 1<<uint(k))
					}
				}
			}
			for _, mask := range masks {
				if m := j.buildMNS(f.input, s, o, mask); m != nil {
					mnses = append(mnses, m)
				}
			}
		case DetectBloom:
			for k := range s.atoms {
				if j.bloomAtomAbsent(f.input, s, o, k) {
					if m := j.buildMNS(f.input, s, o, 1<<uint(k)); m != nil {
						mnses = append(mnses, m)
					}
				}
			}
		default: // DetectDOE: Ø only, handled above.
			return
		}
	}
	if len(mnses) == 0 {
		return
	}
	j.ctr.MNSDetected += uint64(len(mnses))
	j.trace.MNS(j.name, len(mnses))
	for _, m := range mnses {
		s.buf.Add(m)
	}
	if s.prod != nil {
		j.ctr.Feedbacks++
		s.prod.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: mnses})
	}
}

// buildMNS materializes the MNS for an atom mask of input c: the spanned
// sources, the value signature over the consumer's join attributes, the
// crossing predicates (for buffer probing), the expiry (when the oldest
// spanned component leaves the window) and — only when arrivals are matched
// by identity rather than by signature — the anchor sub-tuple.
//
// Atoms whose crossing predicates include a band predicate (Tol != 0) are
// never reported: the MNS buffer reactivates on exact opposite-value
// matches (feedback.Buffer.Probe), which would miss a within-band partner
// and leave the suspension permanent — so band joins simply run without
// signature feedback on those atoms (DESIGN.md §8). The empty MNS Ø is
// unaffected (it reactivates on any opposite arrival).
func (j *JoinOp) buildMNS(c *stream.Composite, s, o *side, mask uint32) *feedback.MNS {
	var srcSet stream.SourceSet
	var preds predicate.Conj
	attrs := s.attrBuf[:0]
	minTS := stream.Time(1) << 61
	for k, src := range s.atoms {
		if mask&(1<<uint(k)) == 0 {
			continue
		}
		comp := c.Comp(src)
		if comp == nil {
			return nil
		}
		for _, p := range s.atomPreds[k] {
			if p.IsBand() {
				return nil
			}
		}
		if srcSet.Empty() {
			// The common single-atom MNS shares the side's predicate list.
			preds = s.atomPreds[k][:len(s.atomPreds[k]):len(s.atomPreds[k])]
		} else {
			preds = append(preds, s.atomPreds[k]...)
		}
		srcSet = srcSet.Add(src)
		attrs = append(attrs, s.atomAttrs[k]...)
		if comp.TS < minTS {
			minTS = comp.TS
		}
	}
	s.attrBuf = attrs
	if srcSet.Empty() {
		return nil
	}
	m := &feedback.MNS{
		ID:      j.nextMNS(),
		Sources: srcSet,
		Sig:     feedback.MakeSignature(attrs, c.Comp),
		Preds:   preds,
		Expiry:  minTS + j.window,
	}
	if !j.mode.Generalize {
		m.Anchor = c.Project(srcSet)
	}
	return m
}

// bloomAtomAbsent reports whether the Bloom filters over the opposite state
// prove that atom k of input c has no join partner: some predicate's value
// is certainly absent from the corresponding opposite column (Sec. IV-A).
func (j *JoinOp) bloomAtomAbsent(c *stream.Composite, s, o *side, k int) bool {
	if o.blooms == nil {
		return false
	}
	for _, p := range s.atomPreds[k] {
		if p.IsBand() {
			// A filter proving the exact value absent proves nothing about
			// within-band partners; band predicates contribute no absence
			// evidence (DESIGN.md §8).
			continue
		}
		var inAttr, opAttr predicate.Attr
		if s.sources.Has(p.Left) {
			inAttr = predicate.Attr{Source: p.Left, Col: p.LCol}
			opAttr = predicate.Attr{Source: p.Right, Col: p.RCol}
		} else {
			inAttr = predicate.Attr{Source: p.Right, Col: p.RCol}
			opAttr = predicate.Attr{Source: p.Left, Col: p.LCol}
		}
		flt := o.blooms.get(opAttr)
		if flt == nil {
			continue
		}
		comp := c.Comp(inAttr.Source)
		if comp == nil {
			continue
		}
		j.ctr.BloomChecks++
		if !flt.MayContain(comp.Vals[inAttr.Col]) {
			return true
		}
	}
	return false
}

// bloomInsert adds a newly stored tuple's crossing-attribute values to the
// side's filters (creating them lazily).
func (j *JoinOp) bloomInsert(s *side, c *stream.Composite) {
	o := j.in[s.port.Opposite()]
	for _, src := range s.sources.IDs() {
		comp := c.Comp(src)
		if comp == nil {
			continue
		}
		for _, a := range j.preds.JoinAttrs(src, o.sources) {
			flt := s.blooms.get(a)
			if flt == nil {
				flt = bloom.NewForCapacity(256)
				s.blooms.put(a, flt)
				j.acct.Alloc(flt.SizeBytes())
			}
			j.ctr.BloomChecks++
			flt.Insert(comp.Vals[a.Col])
		}
	}
}

// bloomNoteDeletes records purges against the side's filters, rebuilding
// them from the live state when stale bits accumulate. The bloomSet keeps
// its filters in attribute order, so sweep and rebuild work is charged in
// the same order every run.
func (j *JoinOp) bloomNoteDeletes(s *side, n int) {
	for i, flt := range s.blooms.filters {
		a := s.blooms.attrs[i]
		for i := 0; i < n; i++ {
			flt.NoteDelete()
		}
		if !flt.NeedsRebuild() {
			continue
		}
		var vals []stream.Value
		s.st.Scan(func(e state.Entry) bool {
			if comp := e.C.Comp(a.Source); comp != nil {
				vals = append(vals, comp.Vals[a.Col])
			}
			return true
		})
		j.ctr.BloomChecks += uint64(len(vals))
		flt.Rebuild(vals)
	}
}

// bloomSet holds a side's per-attribute filters as parallel slices in
// (Source, Col) order. The set is tiny — one entry per crossing join
// attribute — so ordered linear lookup costs less than a map, and unlike a
// map its iteration order is fixed: the purge-path sweep above is
// deterministic by construction rather than by argument (jitlint maporder
// would flag a map range here).
type bloomSet struct {
	attrs   []predicate.Attr
	filters []*bloom.Filter
}

// get returns the filter for a, or nil. A nil receiver (bloom detection
// off) has no filters.
func (b *bloomSet) get(a predicate.Attr) *bloom.Filter {
	if b == nil {
		return nil
	}
	for i, at := range b.attrs {
		if at == a {
			return b.filters[i]
		}
	}
	return nil
}

// put inserts the filter for a new attribute, keeping (Source, Col) order.
func (b *bloomSet) put(a predicate.Attr, f *bloom.Filter) {
	i := sort.Search(len(b.attrs), func(i int) bool {
		at := b.attrs[i]
		if at.Source != a.Source {
			return at.Source > a.Source
		}
		return at.Col >= a.Col
	})
	b.attrs = append(b.attrs, predicate.Attr{})
	copy(b.attrs[i+1:], b.attrs[i:])
	b.attrs[i] = a
	b.filters = append(b.filters, nil)
	copy(b.filters[i+1:], b.filters[i:])
	b.filters[i] = f
}

// registerMarks enrolls a freshly stored tuple in every origin mark entry
// whose id it carries — stamped by an upstream relay, or acquired from the
// entry's side signature before its probe (MarkTable.MarkInput) or during it
// (markScan) — so joins with marked partners on the other side are suppressed
// and recorded.
func (j *JoinOp) registerMarks(se state.Entry, port operator.Port) {
	//jitlint:allow maporder each id enrolls the tuple in its own entry, and enrollments in different entries commute
	for id := range se.C.Marks {
		if e := j.marks.EntryByID(id); e != nil {
			j.marks.Enroll(e, port == operator.Left, se)
		}
	}
}
