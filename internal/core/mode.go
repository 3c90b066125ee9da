// Package core implements the paper's primary contribution: the JIT-enabled
// sliding-window join operator with MNS detection (Sec. IV-A), dynamic
// production control (Sec. IV-B), feedback propagation (Sec. III-C), and the
// REF / DOE baselines obtained by disabling parts of the mechanism.
//
// Every input's probe is REF's probe. Detection, in whichever mode, is a step
// after a probe that found no full match (reportMNS): DOE looks at nothing
// but an empty opposite state, Bloom asks the opposite side's filters, and
// the lattice asks the opposite state itself, by value, for the partners
// that match at least one atom of the input (identifyMNS, DESIGN.md §3).
package core

import "fmt"

// DetectKind selects the consumer-side MNS detection strategy.
type DetectKind int

// Detection strategies. The paper's REF baseline is DetectNone; DOE [21] is
// subsumed as the Ø-only special case; the full JIT uses the CNS lattice;
// DetectBloom is the Bloom-filter acceleration of Sec. IV-A (sound but
// incomplete: detects a subset of Level-1 MNSs plus Ø).
const (
	DetectNone DetectKind = iota
	DetectDOE
	DetectBloom
	DetectLattice
)

func (d DetectKind) String() string {
	switch d {
	case DetectNone:
		return "none"
	case DetectDOE:
		return "doe"
	case DetectBloom:
		return "bloom"
	case DetectLattice:
		return "lattice"
	}
	return "?"
}

// Mode configures how much of the JIT machinery an operator uses. The paper
// stresses that JIT is a best-effort optimization with many valid partial
// configurations (end of Sec. IV-B); these knobs power the ablation benches.
type Mode struct {
	// Detect selects the MNS detection strategy on the consumer side.
	Detect DetectKind
	// TypeII enables mark-result handling of Type II MNSs on the producer
	// side. When off, Type II MNSs in suspension feedback are ignored
	// (explicitly permitted by the paper).
	TypeII bool
	// Generalize enables same-signature suspension of new arrivals (the a2
	// fast path of Sec. IV-B).
	Generalize bool
	// Propagate enables upstream feedback propagation (Sec. III-C).
	Propagate bool
	// IgnoreFeedback makes the operator, as a producer, discard all
	// feedback — the paper's "OP may decide to ignore the message".
	IgnoreFeedback bool
}

// REF is the reference execution without any JIT machinery.
func REF() Mode { return Mode{Detect: DetectNone} }

// JIT is the full mechanism with lattice detection.
func JIT() Mode {
	return Mode{Detect: DetectLattice, TypeII: true, Generalize: true, Propagate: true}
}

// DOE reproduces demand-driven operator execution [21]: producers suspend
// only when a consumer state is empty (the Ø MNS).
func DOE() Mode {
	return Mode{Detect: DetectDOE, Propagate: true}
}

// BloomJIT uses Bloom-filter detection instead of the lattice.
func BloomJIT() Mode {
	return Mode{Detect: DetectBloom, TypeII: false, Generalize: true, Propagate: true}
}

// ParseMode resolves the command-line name of an execution mode (the -mode
// flag of jitrun and jitserver).
func ParseMode(name string) (Mode, error) {
	switch name {
	case "jit":
		return JIT(), nil
	case "ref":
		return REF(), nil
	case "doe":
		return DOE(), nil
	case "bloom":
		return BloomJIT(), nil
	}
	return Mode{}, fmt.Errorf("unknown mode %q (want jit, ref, doe or bloom)", name)
}

// enabled reports whether any feedback machinery is active.
func (m Mode) enabled() bool { return m.Detect != DetectNone }
