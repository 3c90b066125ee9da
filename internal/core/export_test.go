package core

import (
	"repro/internal/metrics"
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

// AuditGraveyard keeps a shadow of both graveyards that only the floor
// without claims empties, and reports to miss every pair a late input forms
// with a shadow entry the graveyard let go (graveShadow). The shadow charges
// nothing the plan measures. judged reads how many such entries late inputs
// reached.
func (j *JoinOp) AuditGraveyard(miss func(in, partner *stream.Composite)) (judged func() int) {
	acct := &metrics.Account{}
	j.shadow = &graveShadow{miss: miss}
	for p, s := range j.in {
		j.shadow.grave[p] = state.New("shadow", metrics.MemGraveyard, acct)
		j.shadow.grave[p].SetKey(s.equi)
	}
	return func() int { return j.shadow.judged }
}
