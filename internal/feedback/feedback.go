// Package feedback defines the JIT feedback protocol between consumer and
// producer operators (Sec. III-A, IV): MNS descriptors with value
// signatures, feedback messages (suspend / resume), the consumer-side MNS
// buffer, and the producer-side blacklist and mark table.
//
// Layout: feedback.go holds the descriptors and messages; table.go the one
// expiring MNS table and the one value index the other three are built on;
// buffer.go the consumer-side MNS buffer (probed on every arrival to detect
// resumption triggers); blacklist.go the producer-side Type I structures
// (parked tuples under anchor entries, signature generalization,
// cursor/Pending/Done exactly-once bookkeeping); marks.go the Type II mark
// table (origins found by the values a joining pair carries, suppressed pairs
// recorded under their origin for the catch-up at its unmark). The
// exactly-once and expiry discipline these structures jointly enforce is
// specified in DESIGN.md §2; their min-deadline caches feed the engine's
// deadline scheduler (DESIGN.md §4).
package feedback

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/predicate"
	"repro/internal/state"
	"repro/internal/stream"
)

// Command is the kind of a feedback message.
type Command int

// Feedback commands. Suspend/Resume drive dynamic production control for
// every MNS type; a Type II MNS is an origin at the operator it reaches,
// made and dissolved there, which tells no one upstream (DESIGN.md §2).
const (
	Suspend Command = iota
	Resume
)

func (c Command) String() string {
	switch c {
	case Suspend:
		return "suspend"
	case Resume:
		return "resume"
	}
	return "?"
}

// SigEntry is one (source, column) = value constraint of an MNS signature.
// It is the state package's type, so a state finds the stored tuples carrying
// a signature's values without translation (state.State.WalkCarrying).
type SigEntry = state.Bound

// Signature is the value fingerprint of an MNS: the values of the MNS
// components on exactly the columns that appear in the detecting consumer's
// join predicate. Two sub-tuples with equal signatures are interchangeable
// for demand purposes — this is what lets the producer suspend a2 after a1
// (Sec. IV-B). Entries are kept sorted for canonical comparison.
type Signature []SigEntry

// MatchedBy reports whether composite c contains a sub-tuple with this
// signature: c must cover every signatured source and agree on every value.
func (s Signature) MatchedBy(c *stream.Composite) bool {
	for _, e := range s {
		t := c.Comp(e.Attr.Source)
		if t == nil || t.Vals[e.Attr.Col] != e.Val {
			return false
		}
	}
	return true
}

// Lookup returns the signature's value at the given attribute, if
// constrained. Used by the blacklist catch-up prefilter: every tuple parked
// under an entry shares the entry signature's values, so one lookup per
// indexed key column can reject a whole entry (DESIGN.md §3).
func (s Signature) Lookup(a predicate.Attr) (stream.Value, bool) {
	for _, e := range s {
		if e.Attr == a {
			return e.Val, true
		}
	}
	return 0, false
}

// Sources returns the set of sources constrained by the signature.
func (s Signature) Sources() stream.SourceSet {
	var set stream.SourceSet
	for _, e := range s {
		set = set.Add(e.Attr.Source)
	}
	return set
}

// SizeBytes estimates the signature's memory footprint.
func (s Signature) SizeBytes() int64 { return 24 + int64(len(s))*24 }

// MakeSignature builds the signature of sub-tuple comps (indexed by source)
// for the given join attributes.
func MakeSignature(attrs []predicate.Attr, comp func(stream.SourceID) *stream.Tuple) Signature {
	sig := make(Signature, 0, len(attrs))
	for _, a := range attrs {
		t := comp(a.Source)
		if t == nil {
			continue
		}
		sig = append(sig, SigEntry{Attr: a, Val: t.Vals[a.Col]})
	}
	slices.SortFunc(sig, func(a, b SigEntry) int { return a.Attr.Compare(b.Attr) })
	return sig
}

// NoExpiry marks an MNS that never times out (the empty MNS Ø).
const NoExpiry = stream.Time(1) << 62

// MNS is a minimal non-demanded sub-tuple as communicated in feedback.
type MNS struct {
	// ID is unique per detection.
	ID uint64
	// Sources is the set of sources the MNS spans; empty for Ø.
	Sources stream.SourceSet
	// Sig is the value signature. Empty for Ø.
	Sig Signature
	// Preds are the consumer-side predicates linking the MNS sources to the
	// consumer's opposite input, used to probe arrivals against the buffer.
	Preds predicate.Conj
	// Expiry is when the anchor sub-tuple leaves the window; after this the
	// consumer forgets the MNS and the producer must reactivate survivors.
	Expiry stream.Time
	// Seen is the detecting consumer's claim about its opposite state: no
	// tuple stored there with a sequence at or below Seen matches the MNS, so
	// a result carrying the signature need only be joined with the ones
	// after it (DESIGN.md §2, "What an MNS rules out"). 0 claims nothing;
	// Guarding claims every stored tuple while the MNS sits in the buffer,
	// and the buffer lowers it to a sequence when the MNS leaves.
	Seen uint64
}

// Guarding is MNS.Seen while the MNS is buffered under the claim: every
// opposite input probes the buffer before it is stored, so none stored
// since the detection matches it either.
const Guarding = ^uint64(0)

// IsEmpty reports whether this is the empty MNS Ø (total suspension / DOE).
func (m *MNS) IsEmpty() bool { return m.Sources.Empty() }

// sigVal returns the signature's value at a, the MNS-side endpoint of one
// of its predicates.
func (m *MNS) sigVal(a predicate.Attr) stream.Value {
	for _, e := range m.Sig {
		if e.Attr == a {
			return e.Val
		}
	}
	// A predicate references an attribute outside the signature only if the
	// MNS was constructed inconsistently; fail loudly.
	panic(fmt.Sprintf("feedback: MNS %d has no signature value for %v", m.ID, a))
}

// SizeBytes estimates the MNS descriptor's footprint.
func (m *MNS) SizeBytes() int64 {
	return 64 + m.Sig.SizeBytes() + int64(len(m.Preds))*32
}

func (m *MNS) String() string {
	if m.IsEmpty() {
		return "Ø"
	}
	return fmt.Sprintf("mns%d<%v>", m.ID, m.Sig)
}

// Claims tells a producer reporting what it owes (core.JoinOp.Owed) whether
// the consumer asking honours the claim of m, the MNS an item was deferred
// under: that consumer detected m, m still guards (Seen == Guarding), and
// nothing can void the claim there. Such an item counts only with the
// results it can still build below the clock m was detected at (DESIGN.md
// §4). A nil Claims honours none.
type Claims func(m *MNS) bool

// OwedFunc receives one item a producer still defers (DESIGN.md §4): a tuple
// parked in a blacklist, with b nil, or the two halves of a pair suppressed
// under a Type II origin. Every result still owed through the item contains it, so it
// carries the item's values, and none is older than lb.
type OwedFunc func(a, b *stream.Composite, lb stream.Time)

// Deferred is a result released on an MNS's account: a demanded partial
// result of S_Π, or a recovery a producer emits when an anchor or a parked
// tuple's window closes. MNS is the descriptor it was deferred under when
// the producer built it directly from a tuple parked, or a pair suppressed,
// under that MNS — the result then carries its signature — and nil for any
// other result, such as those a resumed tuple's own Process_Input gathers
// from further upstream.
type Deferred struct {
	C   *stream.Composite
	MNS *MNS
}

// Message is one feedback message sent from a consumer to a producer.
type Message struct {
	Cmd Command
	MNS []*MNS
	// At is the detecting consumer's clock on a suspension, relayed
	// unchanged up the chain: every entry the MNSs make records it
	// (Entry.Detected, OriginEntry.Detected).
	At stream.Time
}

func (f Message) String() string {
	parts := make([]string, len(f.MNS))
	for i, m := range f.MNS {
		parts[i] = m.String()
	}
	return fmt.Sprintf("<%s, {%s}>", f.Cmd, strings.Join(parts, ","))
}
