package core

// GraveEmpty reports whether neither side of the operator retains a retired
// entry.
func (j *JoinOp) GraveEmpty() bool {
	return j.in[0].grave.Empty() && j.in[1].grave.Empty()
}
