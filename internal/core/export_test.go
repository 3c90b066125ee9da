package core

import "repro/internal/operator"

// GraveEmpty reports whether neither side of the operator retains a retired
// entry.
func (j *JoinOp) GraveEmpty() bool {
	return j.in[0].grave.Empty() && j.in[1].grave.Empty()
}

// GraveLen returns the number of retired entries one side retains.
func (j *JoinOp) GraveLen(p operator.Port) int { return j.in[p].grave.Len() }
