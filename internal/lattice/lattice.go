// Package lattice implements the CNS (candidate non-demanded sub-tuple)
// lattice and the Identify_MNS algorithm of Fig. 8 in the paper.
//
// The lattice is built over the m components ("atoms") of a consumer input
// that participate in the consumer's join predicate. Each node is a subset
// of atoms, encoded as a bitmask; node levels are popcounts. For each tuple
// t' of the opposite operator state the caller supplies the set of atoms
// individually matched by t' (property (ii) of the paper: a node matches t'
// iff all its Level-1 descendants do, i.e. iff node ⊆ matchedAtoms). A node
// that matches some t' is dead; after all of S_o is observed, the minimal
// alive nodes are the MNSs.
//
// Node evaluations are charged to metrics.Counters.LatticeNodes — lattice
// work is part of JIT's honest overhead in the reproduced figures
// (RESULTS.md). The Bloom filters of internal/bloom are the paper's
// cheaper, approximate alternative to this exact lattice (the Bloom-JIT
// mode).
package lattice

// MaxAtoms bounds the lattice size (2^12 nodes per input side); beyond it
// core falls back to Level-1-only detection (the paper permits partial MNS
// detection).
const MaxAtoms = 12

// Lattice tracks dead/alive status for every non-empty subset of m atoms.
// One lattice serves any number of inputs in turn: Reset starts the next.
type Lattice struct {
	m    int
	dead []bool // indexed by mask 1..(1<<m)-1; index 0 unused
	ops  uint64 // node evaluations performed (cost accounting)
	// byLevel lists the masks of each level in ascending order — the walk
	// order of MNSes, a function of m alone.
	byLevel [][]uint32
	// Scratch of MNSes, sized like dead.
	isMNS, nonMin []bool
	out           []uint32
}

// New creates a lattice over m atoms (1 <= m <= MaxAtoms).
func New(m int) *Lattice {
	if m < 1 || m > MaxAtoms {
		panic("lattice: atom count out of range")
	}
	n := 1 << uint(m)
	l := &Lattice{
		m: m, dead: make([]bool, n), byLevel: make([][]uint32, m+1),
		isMNS: make([]bool, n), nonMin: make([]bool, n),
	}
	for mask := uint32(1); mask < uint32(n); mask++ {
		lv := popcount(mask)
		l.byLevel[lv] = append(l.byLevel[lv], mask)
	}
	return l
}

// Reset revives every node for the next input. Ops keeps counting: callers
// charge differences.
func (l *Lattice) Reset() { clear(l.dead) }

// Ops returns the number of node evaluations performed so far, for cost
// accounting.
func (l *Lattice) Ops() uint64 { return l.ops }

// Observe processes one opposite-state tuple, given the bitmask of atoms it
// matches. Following Fig. 8 lines 6-10, every node contained in matchedAtoms
// is marked matched and therefore dead. The loop literally visits every
// node, mirroring the per-node cost of the published algorithm.
func (l *Lattice) Observe(matchedAtoms uint32) {
	full := uint32(1)<<uint(l.m) - 1
	matchedAtoms &= full
	for mask := uint32(1); mask <= full; mask++ {
		l.ops++
		if mask&^matchedAtoms == 0 {
			l.dead[mask] = true
		}
	}
}

// ObserveAllDead is a shortcut for a full match (every atom matched): every
// node dies. Used when the probe already established a complete match.
func (l *Lattice) ObserveAllDead() {
	l.Observe(uint32(1)<<uint(l.m) - 1)
}

// MNSes runs Fig. 8 lines 11-14: report alive Level-1 nodes as MNSs, then
// walk higher levels in order, reporting an alive node as MNS unless one of
// its children is an MNS or non-minimal. Returned masks are in ascending
// level, then ascending mask, order; the slice is the lattice's own and is
// overwritten by the next call.
func (l *Lattice) MNSes() []uint32 {
	isMNS, nonMin, byLevel := l.isMNS, l.nonMin, l.byLevel
	clear(isMNS)
	clear(nonMin)
	out := l.out[:0]

	for _, mask := range byLevel[1] {
		l.ops++
		if !l.dead[mask] {
			isMNS[mask] = true
			out = append(out, mask)
		}
	}
	for lv := 2; lv <= l.m; lv++ {
		for _, mask := range byLevel[lv] {
			l.ops++
			if l.dead[mask] {
				continue
			}
			blocked := false
			for b := mask; b != 0; b &= b - 1 {
				child := mask &^ (b & -b)
				if isMNS[child] || nonMin[child] {
					blocked = true
					break
				}
			}
			if blocked {
				nonMin[mask] = true
			} else {
				isMNS[mask] = true
				out = append(out, mask)
			}
		}
	}
	l.out = out
	return out
}

// BruteMNS is an independent reference implementation used by tests: given
// the matched-atom masks of every opposite tuple, return the minimal masks
// not contained in any of them.
func BruteMNS(m int, observed []uint32) []uint32 {
	full := uint32(1)<<uint(m) - 1
	alive := func(mask uint32) bool {
		for _, o := range observed {
			if mask&^o == 0 {
				return false
			}
		}
		return true
	}
	var out []uint32
	// Ascending level order so minimality can be checked against output.
	for lv := 1; lv <= m; lv++ {
		for mask := uint32(1); mask <= full; mask++ {
			if popcount(mask) != lv || !alive(mask) {
				continue
			}
			minimal := true
			for _, prev := range out {
				if prev&^mask == 0 { // prev ⊆ mask
					minimal = false
					break
				}
			}
			if minimal {
				out = append(out, mask)
			}
		}
	}
	return out
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
