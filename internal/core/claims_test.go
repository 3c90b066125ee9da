package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// The tests in this file pin the two traps of the claim-aware graveyard
// floor (DESIGN.md §4): an item deferred under an MNS the root detected and
// still guards counts with the oldest result it can still build, whenever
// that is older than the detection. Each ends with a root X whose right
// graveyard holds e, retired at 105, before the detection at 111 or 112,
// and a producer P holding one parked tuple t under the root's MNS whose
// oldest result is older than 105: X must keep e. Dropping every item
// deferred under an honoured MNS from the floor lets e go.

// claimPlan wires P (left sources pl, right pr, fed by lp on the left when
// not nil) into the left input of X, the exact root, whose right input is
// source 3's, over a window of 100.
func claimPlan(conj predicate.Conj, lp *core.JoinOp, pl, pr stream.SourceSet, acct *metrics.Account, next func() uint64) (p, x *core.JoinOp) {
	const w = 100
	cfg := core.Config{
		Name: "P", NumSources: 4, Window: w, Mode: core.JIT(), Account: acct, NextMNS: next, Preds: conj,
		LeftSources: pl, RightSources: pr,
	}
	if lp != nil {
		cfg.LeftProd = lp
	}
	p = core.NewJoin(cfg)
	x = core.NewJoin(core.Config{
		Name: "X", NumSources: 4, Window: w, Mode: core.JIT(), Account: acct, NextMNS: next, Preds: conj,
		LeftSources: pl | pr, RightSources: stream.SourceSet(0).Add(3), LeftProd: p,
	})
	if lp != nil {
		lp.SetConsumer(p, operator.Left)
		lp.SetExact(true)
	}
	p.SetConsumer(x, operator.Left)
	x.SetConsumer(&collector{}, operator.Left)
	p.SetExact(true)
	x.SetExact(true)
	return p, x
}

func tup4(id uint64, s stream.SourceID, vals ...stream.Value) *stream.Composite {
	return stream.NewComposite(4, &stream.Tuple{ID: id, Source: s, TS: stream.Time(id), Vals: vals})
}

// TestClaimFloorCountsOldPendingPartner: P joins sources 0 and 1 on c0; X
// tests 0.c1 = 3.c0 and 1.c1 = 3.c1, so each of P's inputs is an atom of its
// own and every MNS X detects parks one tuple at P. X detects that a0·p0
// (95) has no partner and P parks p0 with its cursor short of t, which
// arrives at 100. X's detection at 111 over t·q parks t with p0 as a Pending
// partner: t's oldest result, t·p0, has timestamp 100, older than the
// detection, so t counts at 100 and X keeps e (MinTS 5).
func TestClaimFloorCountsOldPendingPartner(t *testing.T) {
	ids := uint64(1000)
	next := func() uint64 { ids++; return ids }
	conj := predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}, {Left: 0, LCol: 1, Right: 3, RCol: 0}, {Left: 1, LCol: 1, Right: 3, RCol: 1}}
	src := func(s stream.SourceID) stream.SourceSet { return stream.SourceSet(0).Add(s) }
	p, x := claimPlan(conj, nil, src(0), src(1), &metrics.Account{}, next)
	x.Consume(tup4(5, 3, 20, 40), operator.Right)   // e
	p.Consume(tup4(90, 1, 5, 8), operator.Right)    // p0
	p.Consume(tup4(95, 0, 5, 50), operator.Left)    // a0: X detects a0·p0, P parks both
	p.Consume(tup4(100, 0, 5, 20), operator.Left)   // t
	x.Consume(tup4(110, 3, 92, 93), operator.Right) // e retires
	p.Consume(tup4(111, 1, 5, 30), operator.Right)  // q: X detects t·q, P parks t and q
	if c := p.Counters(); c.Suspended != 4 || x.GraveLen(operator.Right) != 1 {
		t.Fatalf("P parked %d tuples and X retired %d; want 4 and e", c.Suspended, x.GraveLen(operator.Right))
	}
	x.Sweep(112)
	if n := x.GraveLen(operator.Right); n != 1 {
		t.Errorf("X keeps %d retired entries, want e: t·p0 (100) may still reach it", n)
	}
}

// TestClaimFloorCountsJoinFedPartners: Q joins sources 0 and 1 and feeds
// P's left input, P joins them with source 2 on 1.c1 = 2.c0, and X tests
// 2.c1 = 3.c0. X detects at 112 that a·b·t has no partner and P parks t,
// stored at 50. P's left input is a join's, so a partner t has not met yet
// may be a late recovery as old as anything Q still owes: t counts at its
// own 50, and X keeps e (MinTS 5).
func TestClaimFloorCountsJoinFedPartners(t *testing.T) {
	ids := uint64(1000)
	next := func() uint64 { ids++; return ids }
	conj := predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}, {Left: 1, LCol: 1, Right: 2, RCol: 0}, {Left: 2, LCol: 1, Right: 3, RCol: 0}}
	src := func(s stream.SourceID) stream.SourceSet { return stream.SourceSet(0).Add(s) }
	acct := &metrics.Account{}
	q := core.NewJoin(core.Config{
		Name: "Q", NumSources: 4, Window: 100, Mode: core.JIT(), Account: acct, NextMNS: next, Preds: conj,
		LeftSources: src(0), RightSources: src(1),
	})
	p, x := claimPlan(conj, q, src(0)|src(1), src(2), acct, next)
	x.Consume(tup4(5, 3, 20), operator.Right)     // e
	p.Consume(tup4(50, 2, 7, 20), operator.Right) // t
	x.Consume(tup4(110, 3, 92), operator.Right)   // e retires
	q.Consume(tup4(111, 1, 1, 7), operator.Right) // b
	q.Consume(tup4(112, 0, 1), operator.Left)     // a: X detects a·b·t, P parks t
	if c := p.Counters(); c.Suspended != 1 || x.GraveLen(operator.Right) != 1 {
		t.Fatalf("P parked %d tuples and X retired %d; want t and e", c.Suspended, x.GraveLen(operator.Right))
	}
	x.Sweep(113)
	if n := x.GraveLen(operator.Right); n != 1 {
		t.Errorf("X keeps %d retired entries, want e: t (50) may still meet a late partner", n)
	}
}
