package feedback

import (
	"cmp"
	"slices"

	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// Buffer is the consumer-side MNS buffer of Sec. III-A: detected MNSs are
// held until they expire or a matching partner arrives on the opposite
// input, at which point they are removed and a resumption feedback is sent.
//
// One Buffer exists per join input side; it stores MNSs detected on inputs
// of that side and is probed by arrivals on the opposite side.
type Buffer struct {
	mnss table[*MNS]
	// byProbe is the buffer's one index: the MNSs filed by the opposite-side
	// attributes their predicates test and the values expected there
	// (probeKey). An opposite arrival finds the MNSs it satisfies at one
	// lookup per attribute set, and a new descriptor its held duplicate at
	// one lookup settled by signature: equal signatures have equal probe
	// keys, since the signature's sources fix the atoms and so the predicates.
	byProbe probeIndex
}

// probeIndex files MNSs under their probe keys.
type probeIndex struct{ fpIndex[*MNS] }

func (x *probeIndex) holding(m *MNS) (*MNS, bool) {
	x.place = probeKey(m, x.place[:0])
	return x.find(x.place, m.Sig)
}

// probeKey appends the opposite attributes an MNS's predicates test and the
// values expected there, in canonical order.
func probeKey(m *MNS, buf []SigEntry) []SigEntry {
	for _, p := range m.Preds {
		var sigAttr, oppAttr predicate.Attr
		if m.Sources.Has(p.Left) {
			sigAttr = predicate.Attr{Source: p.Left, Col: p.LCol}
			oppAttr = predicate.Attr{Source: p.Right, Col: p.RCol}
		} else {
			sigAttr = predicate.Attr{Source: p.Right, Col: p.RCol}
			oppAttr = predicate.Attr{Source: p.Left, Col: p.LCol}
		}
		buf = append(buf, SigEntry{Attr: oppAttr, Val: m.sigVal(sigAttr)})
	}
	slices.SortFunc(buf, func(a, b SigEntry) int {
		if c := a.Attr.Compare(b.Attr); c != 0 {
			return c
		}
		return cmp.Compare(a.Val, b.Val)
	})
	return buf
}

// NewBuffer creates an empty MNS buffer charging memory to acct.
func NewBuffer(acct *metrics.Account) *Buffer {
	b := &Buffer{byProbe: probeIndex{fpIndex: fpIndex[*MNS]{key: probeKey}}}
	b.mnss = newTable[*MNS](acct, metrics.MemMNS, &b.byProbe)
	return b
}

// Len returns the number of buffered MNSs.
func (b *Buffer) Len() int { return len(b.mnss.list) }

// Add inserts an MNS. If an MNS with the same signature is present, it is
// kept with the later of the two expiries and m is dropped; the retained
// descriptor is returned along with whether the buffer changed. guard says
// that the consumer checked every tuple of its opposite state against m: an
// inserted m then guards (Seen = Guarding) until it leaves. A dropped m
// never sat in the buffer and claims nothing.
func (b *Buffer) Add(m *MNS, guard bool) (kept *MNS, added bool) {
	if old, ok := b.mnss.extend(m); ok {
		return old, false
	}
	if guard {
		m.Seen = Guarding
	}
	b.mnss.insert(m)
	return m, true
}

// NextExpiry returns the earliest expiry among buffered MNSs, or NoExpiry
// when the buffer holds nothing that can expire — its contribution to the
// operator's sweep deadline (DESIGN.md §4).
func (b *Buffer) NextExpiry() stream.Time { return b.mnss.nextExpiry() }

// Purge drops expired MNSs and returns how many were removed. It runs on
// every arrival and sweep of the operator, and walks the buffer only when
// something is due. watermark is the opposite side's highest sequence: what
// a guarding MNS checked up to as it leaves.
func (b *Buffer) Purge(now stream.Time, watermark uint64) int {
	expired := b.mnss.takeExpired(now)
	for _, m := range expired {
		b.left(m, watermark)
	}
	return len(expired)
}

// Probe finds every buffered MNS matched by the arriving opposite-side
// composite t, removes them from the buffer, and returns them (the Π set of
// Process_Input). seq is t's sequence: a guarding MNS t takes has checked
// every opposite tuple before it. The comparison count is returned for cost
// accounting.
func (b *Buffer) Probe(t *stream.Composite, seq uint64) (matched []*MNS, comparisons int) {
	comparisons = b.byProbe.match(t, func(m *MNS) bool {
		matched = append(matched, m)
		return true
	})
	b.mnss.remove(matched...)
	for _, m := range matched {
		b.left(m, seq-1)
	}
	return matched, comparisons
}

// left finishes m's departure: a guarding m keeps the claim it held up to
// seen.
func (b *Buffer) left(m *MNS, seen uint64) {
	if m.Seen == Guarding {
		m.Seen = seen
	}
}
