package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// The tests in this file each drive one hand-wired two-source operator
// (left source 0, right source 1, joined on column 0) through a script of
// arrivals and hand-built Type I suspensions and resumptions, chosen so that
// one guard of the resumption catch-up (DESIGN.md §2) decides a pair. Each
// runs the script under REF (where the feedback steps are no-ops), JIT in
// legacy mode and JIT exact, and holds JIT to REF's composites, each built
// exactly once, whether emitted live or returned by a resumption.

// step is one line of a recovery script: an arrival when m is nil, a
// suspension or a resumption of m otherwise.
type step struct {
	port   operator.Port
	val    stream.Value
	m      *feedback.MNS
	resume bool
}

func arrive(p operator.Port, v stream.Value) step { return step{port: p, val: v} }
func suspend(m *feedback.MNS) step                { return step{m: m} }
func resume(m *feedback.MNS) step                 { return step{m: m, resume: true} }

// undemanded is a Type I MNS on port p: the tuples there carrying value v in
// column 0.
func undemanded(id uint64, p operator.Port, v stream.Value) *feedback.MNS {
	src := stream.SourceID(p)
	return &feedback.MNS{
		ID: id, Sources: stream.SourceSet(0).Add(src), Expiry: 1000,
		Sig: feedback.Signature{{Attr: predicate.Attr{Source: src}, Val: v}},
	}
}

// runScript plays the script on a fresh operator and returns it with the keys
// of every composite it built, in delivery order.
func runScript(t *testing.T, mode core.Mode, exact, indexed bool, script []step) (*core.JoinOp, []string) {
	t.Helper()
	cfg := core.Config{
		Name: "X", NumSources: 2, Window: 1000, Mode: mode, Indexed: indexed,
		Preds:       predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}},
		Account:     &metrics.Account{},
		NextMNS:     func() uint64 { return 1 },
		LeftSources: stream.SourceSet(0).Add(0), RightSources: stream.SourceSet(0).Add(1),
	}
	x := core.NewJoin(cfg)
	x.SetExact(exact)
	out := &collector{}
	x.SetConsumer(out, operator.Left)
	for i, s := range script {
		switch {
		case s.m == nil:
			tp := &stream.Tuple{ID: uint64(i + 1), Source: stream.SourceID(s.port), TS: stream.Time(i + 1), Vals: []stream.Value{s.val}}
			x.Consume(stream.NewComposite(2, tp), s.port)
		case s.resume:
			out.got = append(out.got, composites(x.Feedback(feedback.Message{Cmd: feedback.Resume, MNS: []*feedback.MNS{s.m}}))...)
		default:
			x.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: []*feedback.MNS{s.m}})
		}
	}
	var keys []string
	for _, r := range out.got {
		keys = append(keys, r.Key())
	}
	return x, keys
}

// checkAgainstREF runs the script under every mode and reports JIT's operator.
func checkAgainstREF(t *testing.T, indexed bool, script []step, wantPairs int, check func(t *testing.T, x *core.JoinOp)) {
	_, ref := runScript(t, core.REF(), false, indexed, script)
	if len(ref) != wantPairs {
		t.Fatalf("REF built %v, want %d composites", ref, wantPairs)
	}
	slices.Sort(ref)
	for _, exact := range []bool{false, true} {
		t.Run(fmt.Sprintf("exact=%t", exact), func(t *testing.T) {
			x, got := runScript(t, core.JIT(), exact, indexed, script)
			slices.Sort(got)
			if !slices.Equal(got, ref) {
				t.Fatalf("JIT built %v, REF %v", got, ref)
			}
			check(t, x)
		})
	}
}

// TestResumeSkipsCoveredParkedPartner: l and r join live, then both are
// parked, r first. l's cursor claims r (r was stored when l left the state)
// and r's claims l, so l's resumption must pass r over in the opposite
// blacklist — the cursor test of probeBlacklists — and r's must find nothing.
func TestResumeSkipsCoveredParkedPartner(t *testing.T) {
	mL, mR := undemanded(1, operator.Left, 5), undemanded(2, operator.Right, 5)
	script := []step{
		arrive(operator.Left, 5), arrive(operator.Right, 5), // l·r, live
		suspend(mR), suspend(mL),
		resume(mL), resume(mR),
	}
	checkAgainstREF(t, false, script, 1, func(t *testing.T, x *core.JoinOp) {
		if c := x.Counters(); c.Suspended != 2 || c.Resumed != 2 || c.CatchUpJoins != 0 {
			t.Errorf("suspended %d, resumed %d, catch-up joins %d; want 2, 2, 0", c.Suspended, c.Resumed, c.CatchUpJoins)
		}
	})
}

// TestResumeSkipsDonePair: l and r are both diverted on arrival. r resumes
// first and builds l·r from the blacklist, recording it in l's Done; r is
// then parked again, with l — parked, but already paired — left off its
// Pending. l's resumption meets r in the opposite blacklist beyond its cursor
// and must skip it by Done, and r's second resumption is covered by its cursor.
func TestResumeSkipsDonePair(t *testing.T) {
	mL, mR, mR2 := undemanded(1, operator.Left, 5), undemanded(2, operator.Right, 5), undemanded(3, operator.Right, 5)
	script := []step{
		suspend(mL), arrive(operator.Left, 5),
		suspend(mR), arrive(operator.Right, 5),
		resume(mR), // l·r, from l in the blacklist
		suspend(mR2),
		resume(mL), resume(mR2),
	}
	checkAgainstREF(t, false, script, 1, func(t *testing.T, x *core.JoinOp) {
		if c := x.Counters(); c.Suspended != 3 || c.Resumed != 3 || c.CatchUpJoins != 1 {
			t.Errorf("suspended %d, resumed %d, catch-up joins %d; want 3, 3, 1", c.Suspended, c.Resumed, c.CatchUpJoins)
		}
	})
}

// TestResumeSkipsEntryOfAnotherKey: on an indexed operator, r6 is parked
// under an entry whose signature fixes the right key column at 6, and l5
// under one that fixes the left column at 5. l5's resumption scans the right
// blacklist and must reject r6's entry whole by one value comparison
// (entrySkip) rather than charge a catch-up join for a pair that fails its
// equi predicate; it still joins r5 in the state.
func TestResumeSkipsEntryOfAnotherKey(t *testing.T) {
	mL, mR := undemanded(1, operator.Left, 5), undemanded(2, operator.Right, 6)
	script := []step{
		suspend(mR), arrive(operator.Right, 6),
		suspend(mL), arrive(operator.Left, 5),
		arrive(operator.Right, 5),
		resume(mL), // l5·r5, from the state
		resume(mR),
	}
	checkAgainstREF(t, true, script, 1, func(t *testing.T, x *core.JoinOp) {
		if c := x.Counters(); c.Suspended != 2 || c.Resumed != 2 || c.CatchUpJoins != 0 {
			t.Errorf("suspended %d, resumed %d, catch-up joins %d; want 2, 2, 0", c.Suspended, c.Resumed, c.CatchUpJoins)
		}
	})
}
