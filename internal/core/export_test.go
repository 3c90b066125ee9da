package core

import (
	"repro/internal/operator"
	"repro/internal/state"
	"repro/internal/stream"
)

// GraveEmpty reports whether neither side of the operator retains a retired
// entry.
func (j *JoinOp) GraveEmpty() bool {
	return j.in[0].grave.Empty() && j.in[1].grave.Empty()
}

// GraveLen returns the number of retired entries one side retains.
func (j *JoinOp) GraveLen(p operator.Port) int { return j.in[p].grave.Len() }

// ForceLevel1 makes both sides detect as if they had more than
// lattice.MaxAtoms atoms — Level-1 nodes only, no lattice — which no plan
// small enough to test reaches on its own.
func (j *JoinOp) ForceLevel1() {
	j.in[0].level1Only, j.in[1].level1Only = true, true
}

// Stores returns one side's live state and graveyard, and the sources every
// composite the side's port receives carries.
func (j *JoinOp) Stores(p operator.Port) (live, grave *state.State, srcs stream.SourceSet) {
	s := j.in[p]
	return s.st, s.grave, s.sources
}
