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
// The paper fixes the MNS set Ω, not the order Fig. 8 visits nodes in, and
// the dead set is downward-closed: a node dies only together with all its
// subsets. So dead[u] alone says that nothing at or below u is still alive,
// and the lattice is demand-driven on that fact: Observe touches only the
// nodes under the observed mask, and not even those once the mask itself is
// dead; MNSes reads a node above Level 1 only when every child is dead — one
// alive child makes it alive and non-minimal without a look. The caller is
// demand-driven the same way: a partner matching no atom has the empty mask,
// which kills nothing, so core finds the partners worth observing by value
// and never shows the lattice the rest.
//
// Every dead[] node read or written is charged as one unit of
// metrics.Counters.LatticeNodes — lattice work is part of JIT's honest
// overhead in the reproduced figures (RESULTS.md). The Bloom filters of
// internal/bloom are the paper's cheaper, approximate alternative to this
// exact lattice (the Bloom-JIT mode).
package lattice

// MaxAtoms bounds the lattice size (2^12 nodes per input side); beyond it
// core falls back to Level-1-only detection (the paper permits partial MNS
// detection).
const MaxAtoms = 12

// Lattice tracks dead/alive status for every non-empty subset of m atoms.
// One lattice serves any number of inputs in turn: Reset starts the next.
type Lattice struct {
	m    int
	full uint32 // the top node: every atom
	dead []bool // indexed by mask 1..full; index 0 unused
	ops  uint64 // nodes read or written (cost accounting)
	// byLevel lists the masks of each level in ascending order — the walk
	// order of MNSes, a function of m alone.
	byLevel [][]uint32
	// Scratch of MNSes: alive is sized like dead and rewritten by every walk
	// as far as the walk goes.
	alive []bool
	out   []uint32
}

// New creates a lattice over m atoms (1 <= m <= MaxAtoms).
func New(m int) *Lattice {
	if m < 1 || m > MaxAtoms {
		panic("lattice: atom count out of range")
	}
	n := 1 << uint(m)
	l := &Lattice{
		m: m, full: uint32(n - 1), dead: make([]bool, n),
		byLevel: make([][]uint32, m+1),
		alive:   make([]bool, n),
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

// Ops returns the number of nodes read or written so far, for cost
// accounting.
func (l *Lattice) Ops() uint64 { return l.ops }

// Observe processes one opposite-state tuple, given the bitmask of atoms it
// matches: every node contained in matchedAtoms is matched and therefore dead
// (Fig. 8 lines 6-10). An empty mask contains no node and costs nothing; a
// mask whose own node is already dead has nothing left to kill beneath it
// and costs that one read; otherwise the nodes under the mask — and only
// those — are written, one visit each.
func (l *Lattice) Observe(matchedAtoms uint32) {
	mask := matchedAtoms & l.full
	if mask == 0 {
		return
	}
	l.ops++
	if l.dead[mask] {
		return
	}
	l.dead[mask] = true
	for sub := (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask {
		l.ops++
		l.dead[sub] = true
	}
}

// MNSes runs Fig. 8 lines 11-14: report alive Level-1 nodes as MNSs, then
// walk higher levels in order, reporting a node as MNS when it is alive and
// every child is dead. A node with an alive child is alive too (the dead set
// is downward-closed) and not minimal, which costs no read; and once a whole
// level is alive so is everything above it, none of it minimal, and the walk
// ends. Returned masks are in ascending level, then ascending mask, order;
// the slice is the lattice's own and is overwritten by the next call.
func (l *Lattice) MNSes() []uint32 {
	alive, out := l.alive, l.out[:0]
	for lv := 1; lv <= l.m; lv++ {
		anyDead := false
		for _, mask := range l.byLevel[lv] {
			alive[mask] = lv > 1 && l.hasAliveChild(mask)
			if alive[mask] {
				continue
			}
			l.ops++
			if l.dead[mask] {
				anyDead = true
				continue
			}
			alive[mask] = true
			out = append(out, mask)
		}
		if !anyDead {
			break
		}
	}
	l.out = out
	return out
}

// hasAliveChild reports whether MNSes found alive some node one atom short of
// mask.
func (l *Lattice) hasAliveChild(mask uint32) bool {
	for b := mask; b != 0; b &= b - 1 {
		if l.alive[mask&^(b&-b)] {
			return true
		}
	}
	return false
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
