package core

import (
	"math/bits"
	"sort"

	"repro/internal/bloom"
	"repro/internal/feedback"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/state"
	"repro/internal/stream"
)

// atomLookup is how lattice detection asks the opposite state for the
// partners matching one atom: bound[i].Attr is the opposite endpoint of the
// atom's i-th predicate and cols[i] the input component's own column in it;
// bound[i].Val is scratch, filled from each detecting input in turn.
type atomLookup struct {
	cols  []int
	bound []state.Bound
}

// newAtomLookup prepares the lookup for the atom of source src with crossing
// predicates preds. An atom with a band predicate gets none: equal hashes say
// nothing about a within-band partner, and buildMNS refuses every node that
// contains such an atom anyway, so it stays out of the lattice.
func newAtomLookup(src stream.SourceID, preds predicate.Conj) *atomLookup {
	l := &atomLookup{cols: make([]int, len(preds)), bound: make([]state.Bound, len(preds))}
	for i, p := range preds {
		if p.IsBand() {
			return nil
		}
		if p.Left == src {
			l.cols[i], l.bound[i].Attr = p.LCol, predicate.Attr{Source: p.Right, Col: p.RCol}
		} else {
			l.cols[i], l.bound[i].Attr = p.RCol, predicate.Attr{Source: p.Left, Col: p.LCol}
		}
	}
	return l
}

// at binds the lookup to the input component t's values.
func (l *atomLookup) at(t *stream.Tuple) []state.Bound {
	for i, col := range l.cols {
		l.bound[i].Val = t.Vals[col]
	}
	return l.bound
}

// identifyMNS is Identify_MNS (Fig. 8) for input c of side s, run after a
// probe that found no full match: it returns the atom masks of the MNS set Ω,
// in ascending level then ascending mask order. The paper fixes Ω, not how it
// is found. A partner matching no atom kills no lattice node, so instead of
// taking every stored partner's mask the operator asks the opposite state,
// atom by atom, for the partners carrying the input's values at that atom's
// opposite columns (State.WalkCarrying), admits them by the probe's own
// pairValid, verifies the atom on each — a candidate may be a hash collision,
// and one lacking a component satisfies its predicates vacuously — and
// completes the mask of a verified one over the atoms above: it was not
// verified under any atom below, so it matches none of them. Only those masks
// reach the lattice.
//
// An atom with no lookup, or whose component c lacks, never has its bit set;
// buildMNS refuses every node that contains it, and whether a node of the
// other atoms is alive does not depend on it.
//
// Beyond lattice.MaxAtoms only Level 1 is decided (the paper permits partial
// detection): an atom is alive iff its lookup verifies nobody.
//
// The charge (DESIGN.md §3): each lookup costs the length of its bound, each
// predicate evaluated on a candidate one comparison, each lattice node read
// or written one LatticeNodes — a Level-1-only atom is one node.
func (j *JoinOp) identifyMNS(c *stream.Composite, s, o *side) []uint32 {
	if s.lat == nil && !s.level1Only {
		s.lat, s.seen = lattice.New(len(s.atoms)), make(map[uint64]struct{})
	}
	lat := s.lat
	var before uint64
	if lat != nil {
		lat.Reset()
		clear(s.seen)
		before = lat.Ops()
	}
	m := min(len(s.atoms), 32) // a mask has 32 bits; only the fallback can be wider
	var matched uint32         // Level-1-only: the atoms some partner matches
	for k := 0; k < m; k++ {
		l, comp := s.lookups[k], c.Comp(s.atoms[k])
		if l == nil || comp == nil {
			continue
		}
		bound := l.at(comp)
		j.ctr.Comparisons += uint64(len(bound))
		o.st.WalkCarrying(bound, func(e state.Entry) bool {
			if !j.pairValid(c, e.C) {
				s.partial = true
				return true
			}
			if _, ok := s.seen[e.Seq]; ok {
				return true
			}
			if !j.atomHolds(c, s, k, e.C) {
				return true
			}
			if lat == nil {
				matched |= 1 << uint(k)
				return false
			}
			atom := uint32(1) << uint(k)
			mask := atom
			for h := k + 1; h < m; h++ {
				if s.lookups[h] != nil && c.Comp(s.atoms[h]) != nil && j.atomHolds(c, s, h, e.C) {
					mask |= 1 << uint(h)
				}
			}
			if mask != atom {
				s.seen[e.Seq] = struct{}{} // a candidate again under a higher atom
			}
			lat.Observe(mask)
			return true
		})
	}
	if lat != nil {
		masks := lat.MNSes()
		j.ctr.LatticeNodes += lat.Ops() - before
		return masks
	}
	var masks []uint32
	for k := 0; k < m; k++ {
		j.ctr.LatticeNodes++
		if matched&(1<<uint(k)) == 0 {
			masks = append(masks, 1<<uint(k))
		}
	}
	return masks
}

// reportMNS is the feedback dispatch after Identify_MNS (Fig. 8): record the
// MNS set Ω of input f.input in the MNS buffer and send a suspension feedback
// to the producer. Called only when the probe produced no full match
// (otherwise no node can be alive).
func (j *JoinOp) reportMNS(f *probe, s, o *side) {
	mnses := j.omega(f.input, s, o)
	if len(mnses) == 0 {
		return
	}
	j.ctr.MNSDetected += uint64(len(mnses))
	j.trace.MNS(j.name, len(mnses))
	// The MNSs guard (feedback.Guarding) when the detection checked every
	// tuple of the opposite state and none is in flight towards it, unchecked.
	// The producer is handed the descriptor the buffer keeps: a duplicate it
	// dropped never sat there and claims nothing (DESIGN.md §2).
	guard := !s.partial && j.topFrameOn(o.port) == nil
	for i, m := range mnses {
		mnses[i], _ = s.buf.Add(m, guard)
	}
	if s.prod != nil {
		j.ctr.Feedbacks++
		s.prod.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: mnses, At: j.now})
	}
}

// omega computes the MNS set Ω of input c by the mode's detection method and
// materializes it. The list is s.omega, good until the next call on s.
func (j *JoinOp) omega(c *stream.Composite, s, o *side) []*feedback.MNS {
	mnses := s.omega[:0]
	s.partial = false
	switch {
	case o.st.Empty():
		// Fig. 8 line 2: empty opposite state → Ø is the only MNS. This is
		// the DOE special case; the producer suspends entirely.
		mnses = append(mnses, &feedback.MNS{ID: j.nextMNS(), Expiry: feedback.NoExpiry})
	case j.mode == DetectLattice:
		for _, mask := range j.identifyMNS(c, s, o) {
			if m := j.buildMNS(c, s, o, mask); m != nil {
				mnses = append(mnses, m)
			}
		}
	case j.mode == DetectBloom:
		for k := range s.atoms {
			if j.bloomAtomAbsent(c, s, o, k) {
				if m := j.buildMNS(c, s, o, 1<<uint(k)); m != nil {
					mnses = append(mnses, m)
				}
			}
		}
	}
	s.omega = mnses
	return mnses
}

// buildMNS materializes the MNS for an atom mask of input c: the spanned
// sources, the value signature over the consumer's join attributes, the
// crossing predicates (for buffer probing) and the expiry (when the oldest
// spanned component leaves the window).
//
// Atoms whose crossing predicates include a band predicate (Tol != 0) are
// never reported: the MNS buffer reactivates on exact opposite-value
// matches (feedback.Buffer.Probe), which would miss a within-band partner
// and leave the suspension permanent — so band joins simply run without
// signature feedback on those atoms (DESIGN.md §8). The empty MNS Ø is
// unaffected (it reactivates on any opposite arrival).
func (j *JoinOp) buildMNS(c *stream.Composite, s, o *side, mask uint32) *feedback.MNS {
	var srcSet stream.SourceSet
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
	return &feedback.MNS{
		ID:      j.nextMNS(),
		Sources: srcSet,
		Sig:     feedback.MakeSignature(attrs, c.Comp),
		Preds:   s.predsOf(mask),
		Expiry:  minTS + j.window,
	}
}

// predsOf returns the crossing predicates of the atoms in mask, in atom
// order. Every MNS over the same atoms shares one list, so descriptors never
// copy it: a single atom's is the side's own, a wider mask's is built on its
// first detection and kept. The lists are read-only.
func (s *side) predsOf(mask uint32) predicate.Conj {
	if mask&(mask-1) == 0 {
		p := s.atomPreds[bits.TrailingZeros32(mask)]
		return p[:len(p):len(p)]
	}
	if p, ok := s.maskPreds[mask]; ok {
		return p
	}
	var p predicate.Conj
	for k := range s.atoms {
		if mask&(1<<uint(k)) != 0 {
			p = append(p, s.atomPreds[k]...)
		}
	}
	p = p[:len(p):len(p)]
	if s.maskPreds == nil {
		s.maskPreds = make(map[uint32]predicate.Conj)
	}
	s.maskPreds[mask] = p
	return p
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
				j.acct.Alloc(metrics.MemBloom, flt.SizeBytes())
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
