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

// Mode is an operator's consumer-side MNS detection strategy, and with it
// how much of the JIT machinery runs. The paper calls JIT best-effort: any
// subset of detection, generalization, propagation and marking stays correct
// (end of Sec. IV-B). Detection is the one knob the four modes need, the rest
// follows from it:
//
//   - DetectNone (REF) runs no feedback at all;
//   - DetectDOE reports only Ø, so a producer suspends outright and nothing
//     is generalized or marked;
//   - DetectBloom reports single-atom MNSs, always Type I at the producer;
//   - DetectLattice (JIT) reports every MNS, Type II included.
//
// A feedback mode always propagates, matches arrivals against suspended
// signatures by value (generalization) and runs the mark protocol on the
// Type II MNSs it is sent.
type Mode int

// Detection strategies. The paper's REF baseline is DetectNone; DOE [21] is
// subsumed as the Ø-only special case; the full JIT uses the CNS lattice;
// DetectBloom is the Bloom-filter acceleration of Sec. IV-A (sound but
// incomplete: detects a subset of Level-1 MNSs plus Ø).
const (
	DetectNone Mode = iota
	DetectDOE
	DetectBloom
	DetectLattice
)

func (m Mode) String() string {
	switch m {
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

// REF is the reference execution without any JIT machinery.
func REF() Mode { return DetectNone }

// JIT is the full mechanism with lattice detection.
func JIT() Mode { return DetectLattice }

// DOE reproduces demand-driven operator execution [21]: producers suspend
// only when a consumer state is empty (the Ø MNS).
func DOE() Mode { return DetectDOE }

// BloomJIT uses Bloom-filter detection instead of the lattice.
func BloomJIT() Mode { return DetectBloom }

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
	return DetectNone, fmt.Errorf("unknown mode %q (want jit, ref, doe or bloom)", name)
}

// enabled reports whether any feedback machinery is active.
func (m Mode) enabled() bool { return m != DetectNone }
