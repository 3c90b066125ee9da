package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/feedback"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// collector is a consumer that keeps what it is handed.
type collector struct{ got []*stream.Composite }

func (c *collector) Consume(r *stream.Composite, _ operator.Port) { c.got = append(c.got, r) }

// composites drops the MNSs a batch of deferred results was deferred under.
func composites(ds []feedback.Deferred) []*stream.Composite {
	var cs []*stream.Composite
	for _, d := range ds {
		cs = append(cs, d.C)
	}
	return cs
}

// TestGraveyardHorizon pins the retention rule of DESIGN.md §4 on one
// operator, white-box: an entry retired at MinTS+w stays findable while a
// parked tuple that agrees with it on the equi-key and is old enough to pair
// with it is still owed its catch-up, is found by that tuple's last gasp at
// MinTS+2w−1 — the latest moment a valid partner's own window can close —
// and is gone when that sweep returns; an entry nothing deferred can reach,
// by age or by value, is not kept at all. Both ports, hash-indexed and
// linear.
func TestGraveyardHorizon(t *testing.T) {
	const w = 100
	for _, indexed := range []bool{false, true} {
		for _, stored := range []operator.Port{operator.Left, operator.Right} {
			t.Run(fmt.Sprintf("stored=%v/indexed=%t", stored, indexed), func(t *testing.T) {
				parked := stored.Opposite()
				cfg := core.Config{
					Name: "X", NumSources: 2, Window: w, Mode: core.JIT(), Indexed: indexed,
					Preds:       predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}},
					Account:     &metrics.Account{},
					NextMNS:     func() uint64 { return 1 },
					LeftSources: stream.SourceSet(0).Add(0), RightSources: stream.SourceSet(0).Add(1),
				}
				x := core.NewJoin(cfg)
				x.SetExact(true)
				out := &collector{}
				x.SetConsumer(out, operator.Left)
				tuple := func(id uint64, p operator.Port, ts stream.Time, v stream.Value) *stream.Composite {
					return stream.NewComposite(2, &stream.Tuple{ID: id, Source: stream.SourceID(p), TS: ts, Vals: []stream.Value{v}})
				}

				// e (value 7) and a bystander (value 8) are stored at t=0. The
				// consumer then declares value 7 on the other side undemanded,
				// so p — which arrives at w−1, in e's window by one tick — is
				// parked without ever probing.
				x.Consume(tuple(1, stored, 0, 7), stored)
				x.Consume(tuple(2, stored, 0, 8), stored)
				undemanded := &feedback.MNS{
					ID: 9, Sources: stream.SourceSet(0).Add(stream.SourceID(parked)),
					Sig:    feedback.Signature{{Attr: predicate.Attr{Source: stream.SourceID(parked)}, Val: 7}},
					Expiry: 10 * w,
				}
				x.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: []*feedback.MNS{undemanded}})
				x.Consume(tuple(3, parked, w-1, 7), parked)
				_, black, _ := x.Side(parked)
				if _, n := black.Owing(); n != 1 || len(out.got) != 0 {
					t.Fatalf("p not parked: %d suspended, %d results", n, len(out.got))
				}

				// Both entries retire at MinTS+w. p (TS w−1) could pair with
				// anything of its key younger than 2w−1, so e stays; the
				// bystander differs from p on the key and goes at once.
				x.Sweep(w)
				if st, _, _ := x.Side(stored); st.Len() != 0 || x.GraveLen(stored) != 1 {
					t.Fatalf("after retirement: %d live, %d retired; want e alone", st.Len(), x.GraveLen(stored))
				}
				x.Sweep(2*w - 2)
				if x.GraveLen(stored) != 1 || len(out.got) != 0 {
					t.Fatalf("before p's window closes: %d retired, %d results", x.GraveLen(stored), len(out.got))
				}

				// p's own window closes at MinTS(e)+2w−1: its last gasp finds
				// e in the graveyard, and with p gone nothing is owed any more.
				x.Sweep(2*w - 1)
				want := "0:1|1:3" // source:tuple id — e is tuple 1, p tuple 3
				if stored == operator.Right {
					want = "0:3|1:1"
				}
				if len(out.got) != 1 || out.got[0].Key() != want {
					t.Fatalf("last gasp delivered %v, want %s", out.got, want)
				}
				if !x.GraveEmpty() {
					t.Fatalf("graveyards not emptied: %d and %d retired", x.GraveLen(operator.Left), x.GraveLen(operator.Right))
				}
				if live := cfg.Account.Live(); live != undemanded.SizeBytes() {
					t.Fatalf("account holds %d bytes with only the blacklist entry (%d) left", live, undemanded.SizeBytes())
				}

				// With nothing deferred, a retired entry is not kept at all.
				x.Consume(tuple(4, stored, 3*w, 7), stored)
				x.Sweep(4 * w)
				if st, _, _ := x.Side(stored); st.Len() != 0 || !x.GraveEmpty() {
					t.Fatalf("unreachable entry kept: %d live, %d retired", st.Len(), x.GraveLen(stored))
				}
			})
		}
	}
}

// TestGraveProbeIsKeyed pins the graveyard's keying on a scan-plan operator
// (no state index): entries retired under several key values while one tuple
// of one of those keys is parked. The graveyard keeps only the entries of
// the parked tuple's key — nothing deferred agrees with the others — and its
// last gasp, a late input, charges a catch-up join for each of them, not for
// every entry retired (which it did while the graveyard was unkeyed without
// -indexed), and delivers what REF delivers on the same stream in order.
func TestGraveProbeIsKeyed(t *testing.T) {
	const w = 100
	vals := []stream.Value{7, 8, 7, 9, 7, 8}
	keyed := 0 // retired entries sharing p's key; all pair with p
	for _, v := range vals {
		if v == 7 {
			keyed++
		}
	}
	for _, stored := range []operator.Port{operator.Left, operator.Right} {
		t.Run(fmt.Sprintf("stored=%v", stored), func(t *testing.T) {
			parked := stored.Opposite()
			run := func(m core.Mode, late bool) (*core.JoinOp, []string) {
				x := core.NewJoin(core.Config{
					Name: "X", NumSources: 2, Window: w, Mode: m,
					Preds:       predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}},
					Account:     &metrics.Account{},
					NextMNS:     func() uint64 { return 1 },
					LeftSources: stream.SourceSet(0).Add(0), RightSources: stream.SourceSet(0).Add(1),
				})
				x.SetExact(true)
				out := &collector{}
				x.SetConsumer(out, operator.Left)
				tuple := func(id uint64, p operator.Port, ts stream.Time, v stream.Value) *stream.Composite {
					return stream.NewComposite(2, &stream.Tuple{ID: id, Source: stream.SourceID(p), TS: ts, Vals: []stream.Value{v}})
				}
				for i, v := range vals {
					x.Consume(tuple(uint64(i+1), stored, stream.Time(i), v), stored)
				}
				if late {
					// Value 7 on the parked side is undemanded: p is parked
					// unprobed, the stored entries retire at MinTS+w, and p's
					// last gasp at its own window close probes the graveyard.
					x.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: []*feedback.MNS{{
						ID: 9, Sources: stream.SourceSet(0).Add(stream.SourceID(parked)),
						Sig:    feedback.Signature{{Attr: predicate.Attr{Source: stream.SourceID(parked)}, Val: 7}},
						Expiry: 10 * w,
					}}})
				}
				x.Consume(tuple(100, parked, w-1, 7), parked)
				if late {
					x.Sweep(w + stream.Time(len(vals)))
					if x.GraveLen(stored) != keyed || len(out.got) != 0 {
						t.Fatalf("before the last gasp: %d retired, %d results; want the %d of p's key",
							x.GraveLen(stored), len(out.got), keyed)
					}
					x.Sweep(2*w - 1)
				}
				var keys []string
				for _, r := range out.got {
					keys = append(keys, r.Key())
				}
				return x, keys
			}
			ref, want := run(core.REF(), false)
			x, got := run(core.JIT(), true)
			if same := uint64(keyed); x.Counters().CatchUpJoins != same {
				t.Errorf("the late input charged %d catch-up joins for %d retired entries of its key (%d retired)",
					x.Counters().CatchUpJoins, same, len(vals))
			}
			if len(want) != keyed || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("late probe delivered %v, REF %v", got, want)
			}
			if ref.Counters().CatchUpJoins != 0 {
				t.Errorf("REF charged %d catch-up joins", ref.Counters().CatchUpJoins)
			}
		})
	}
}

// TestHalfKeyKeepsItsHalf pins the value rule on a partial key (DESIGN.md
// §4): P joins sources 0 and 1 on c0 and feeds X, whose crossing equi-key is
// (0.c1, 1.c1) = (3.c0, 3.c1). A tuple parked at P's left input fixes only
// the 0.c1 half: whatever it builds takes some 1 tuple's values on the other
// half. So X keeps every retired entry that agrees with it on 0.c1, whatever
// its 3.c1, and lets go only those that differ there: e1 (5, 9) stays and e2
// (6, 9) goes. a's last gasp builds a·b, which reaches X late and pairs with
// e1 as REF pairs it live. A floor that filed a half key as a full one would
// have let e1 go too.
func TestHalfKeyKeepsItsHalf(t *testing.T) {
	const w = 100
	ids := uint64(1000)
	next := func() uint64 { ids++; return ids }
	conj := predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}, {Left: 0, LCol: 1, Right: 3, RCol: 0}, {Left: 1, LCol: 1, Right: 3, RCol: 1}}
	src := func(s stream.SourceID) stream.SourceSet { return stream.SourceSet(0).Add(s) }
	tup := func(id uint64, s stream.SourceID, ts stream.Time, vals ...stream.Value) *stream.Composite {
		return stream.NewComposite(4, &stream.Tuple{ID: id, Source: s, TS: ts, Vals: vals})
	}
	p, x := claimPlan(conj, nil, src(0), src(1), &metrics.Account{}, next)
	out := &collector{}
	x.SetConsumer(out, operator.Left)
	p.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: []*feedback.MNS{{
		ID: next(), Sources: src(0), Expiry: 10 * w,
		Sig: feedback.Signature{{Attr: predicate.Attr{Source: 0, Col: 1}, Val: 5}},
	}}})
	x.Consume(tup(1, 3, 0, 5, 9), operator.Right)  // e1
	x.Consume(tup(2, 3, 0, 6, 9), operator.Right)  // e2
	p.Consume(tup(3, 1, 1, 1, 9), operator.Right)  // b
	p.Consume(tup(4, 0, w-1, 1, 5), operator.Left) // a, parked unprobed
	x.Sweep(w)
	if st, _, _ := x.Side(operator.Right); st.Len() != 0 || x.GraveLen(operator.Right) != 1 {
		t.Fatalf("X right: %d live, %d retired; want e1 alone retired", st.Len(), x.GraveLen(operator.Right))
	}
	p.Sweep(2*w - 1) // a's last gasp
	if len(out.got) != 1 || out.got[0].Key() != "0:4|1:3|3:1" {
		t.Fatalf("X delivered %v, want a·b·e1 as REF does", out.got)
	}
}

// TestJITStateWindowBounded drives one exact JIT plan through tens of windows
// and compares what it holds late in the run with what it held a third of
// the way in: accounted live bytes, both graveyards of every operator, every
// blacklist entry and buffered MNS (which bound their fingerprint indexes,
// feedback's TestFPIndexDropsEmptyBuckets) and the heap in use after a
// collection are functions of the window, not of how long the stream has run. Before the
// retention rule of DESIGN.md §4 the graveyards alone grew 3× over the span.
func TestJITStateWindowBounded(t *testing.T) {
	const window = 30 * stream.Second
	early, late := stream.Time(10*window), stream.Time(30*window)
	if testing.Short() {
		early, late = 5*window, 15*window
	}
	cat, conj := predicate.Clique(4)
	b := plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{Window: window, Mode: core.JIT(), NoStateIndex: true})
	gen := source.Stream(cat, source.UniformConfig(4, 2.5, 16, late+window, 1))

	type sample struct{ live, retired, filed, heap float64 }
	measure := func() (s sample) {
		s.live = float64(b.Account.Live())
		for _, j := range b.Joins {
			for p := operator.Port(0); p < 2; p++ {
				_, black, buf := j.Side(p)
				s.retired += float64(j.GraveLen(p))
				s.filed += float64(black.Len() + buf.Len())
			}
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.heap = float64(m.HeapInuse)
		return s
	}
	var at []sample
	marks := []stream.Time{early, late}
	engine.NewWithOptions(b, engine.Options{Drain: true}).RunStream(func() (*stream.Tuple, bool) {
		tp, ok := gen()
		if ok && len(at) < len(marks) && tp.TS >= marks[len(at)] {
			at = append(at, measure())
		}
		return tp, ok
	})
	if len(at) != 2 {
		t.Fatalf("stream ended after %d of 2 samples", len(at))
	}
	t.Logf("at %d windows: %+v", early/window, at[0])
	t.Logf("at %d windows: %+v", late/window, at[1])
	if at[0].retired == 0 || at[0].filed == 0 {
		t.Fatalf("degenerate run: nothing retired or nothing indexed at the first sample: %+v", at[0])
	}
	check := func(what string, a, b float64) {
		if b > 1.25*a {
			t.Errorf("%s grew with the run: %.0f at %d windows, %.0f at %d", what, a, early/window, b, late/window)
		}
	}
	check("accounted live bytes", at[0].live, at[1].live)
	check("retired entries", at[0].retired, at[1].retired)
	check("blacklist entries and buffered MNSs", at[0].filed, at[1].filed)
	check("heap in use", at[0].heap, at[1].heap)
}

// TestGraveyardFloorIsATimestamp pins the producer's term of the retention
// rule (DESIGN.md §4) on a hand-built two-operator plan: what a producer owes
// is bounded below by the timestamp of the result it will produce, not by
// that result's oldest part. P (sources 0 and 1) holds one pair suppressed
// under a Type II origin, a at w and b at 2w−1: the result ab it owes has TS 2w−1 and
// MinTS w. Its consumer X retires e1 (TS w−1) and e2 (TS w). ab can pair only
// with e2 — pairValid needs ab.TS < e.MinTS + w — so X forgets e1 while the
// pair is pending (a floor at ab's MinTS kept both), and when P's origin
// expires ab, a reader exactly at e2's boundary, still finds e2.
func TestGraveyardFloorIsATimestamp(t *testing.T) {
	const w = 100
	acct := &metrics.Account{}
	ids := uint64(100)
	next := func() uint64 { ids++; return ids }
	src := func(s stream.SourceID) stream.SourceSet { return stream.SourceSet(0).Add(s) }
	p := core.NewJoin(core.Config{
		Name: "P", NumSources: 3, Window: w, Mode: core.JIT(), Account: acct, NextMNS: next,
		Preds:       predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}},
		LeftSources: src(0), RightSources: src(1),
	})
	x := core.NewJoin(core.Config{
		Name: "X", NumSources: 3, Window: w, Mode: core.JIT(), Account: acct, NextMNS: next,
		Preds:       predicate.Conj{{Left: 0, LCol: 0, Right: 2, RCol: 0}},
		LeftSources: src(0) | src(1), RightSources: src(2), LeftProd: p,
	})
	out := &collector{}
	p.SetConsumer(x, operator.Left)
	x.SetConsumer(out, operator.Left)
	p.SetExact(true)
	x.SetExact(true)
	tuple := func(id uint64, s stream.SourceID, ts stream.Time, v stream.Value) *stream.Composite {
		return stream.NewComposite(3, &stream.Tuple{ID: id, Source: s, TS: ts, Vals: []stream.Value{v}})
	}

	// A Type II MNS over both of P's inputs: P suppresses the pairs with value
	// 7 on each side and records the one it meets.
	m := &feedback.MNS{
		ID: 9, Sources: src(0) | src(1), Expiry: 3 * w,
		Sig: feedback.Signature{{Attr: predicate.Attr{Source: 0}, Val: 7}, {Attr: predicate.Attr{Source: 1}, Val: 7}},
	}
	p.Feedback(feedback.Message{Cmd: feedback.Suspend, MNS: []*feedback.MNS{m}})
	x.Consume(tuple(1, 2, w-1, 7), operator.Right) // e1
	x.Consume(tuple(2, 2, w, 7), operator.Right)   // e2
	p.Consume(tuple(3, 0, w, 7), operator.Left)    // a
	p.Consume(tuple(4, 1, 2*w-1, 7), operator.Right)
	if n := p.Counters().SuppressedPairs; n != 1 || len(out.got) != 0 {
		t.Fatalf("P suppressed %d pairs, X delivered %d results; want 1 and 0", n, len(out.got))
	}
	var owed []stream.Time
	p.Owed(nil, feedback.NoExpiry, func(a, b *stream.Composite, lb stream.Time) { owed = append(owed, lb) })
	if len(owed) != 1 || owed[0] != 2*w-1 {
		t.Errorf("P owes %v, want one item at the owed result's TS %v", owed, stream.Time(2*w-1))
	}

	// X's clock passes both entries' windows: both retire, and the sweep's
	// retention pass keeps only the one ab can still reach.
	x.Consume(tuple(5, 2, 5*w/2, 8), operator.Right)
	x.Sweep(5 * w / 2)
	if st, _, _ := x.Side(operator.Right); st.Len() != 1 || x.GraveLen(operator.Right) != 1 {
		t.Fatalf("X right: %d live, %d retired; want 1 and 1 (e2 kept, e1 dropped)", st.Len(), x.GraveLen(operator.Right))
	}

	// P's origin expires: ab (TS 2w−1 = e2.MinTS + w − 1) reaches X late and
	// pairs with e2 in the graveyard.
	p.Sweep(3 * w)
	if len(out.got) != 1 || out.got[0].Key() != "0:3|1:4|2:2" {
		t.Fatalf("X delivered %v, want the one result a·b·e2", out.got)
	}
}

// TestRootGraveyardTracksLiveState holds the retention rule to the live state
// it shadows on the drained bushy N=4 clique stream (λ=2.5, dmax=16, w=1 min,
// linear-scan states): at 3, 6 and 9 windows each side of the root keeps at
// most 2.5× as many retired entries as live ones. While the producers' floor
// was the MinTS of what they owed it kept 2.7–4.2×.
func TestRootGraveyardTracksLiveState(t *testing.T) {
	const maxRatio = 2.5
	cat, conj := predicate.Clique(4)
	b := plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{Window: stream.Minute, Mode: core.JIT(), NoStateIndex: true})
	gen := source.Stream(cat, source.UniformConfig(4, 2.5, 16, 10*stream.Minute, 1))
	root := b.Joins[len(b.Joins)-1]
	checkpoint, samples := 3*b.Window, 0
	engine.NewWithOptions(b, engine.Options{Drain: true}).RunStream(func() (*stream.Tuple, bool) {
		tp, ok := gen()
		if ok && tp.TS >= checkpoint && checkpoint <= 9*b.Window {
			for p := operator.Port(0); p < 2; p++ {
				st, _, _ := root.Side(p)
				live, retired := st.Len(), root.GraveLen(p)
				ratio := float64(retired) / float64(live)
				t.Logf("%v %v: %d retired, %d live, %.2f×", checkpoint, p, retired, live, ratio)
				if live == 0 || ratio > maxRatio {
					t.Errorf("%v %v: %d retired entries against %d live (bound %.1f×)", checkpoint, p, retired, live, maxRatio)
				}
			}
			checkpoint += 3 * b.Window
			samples++
		}
		return tp, ok
	})
	if samples != 3 {
		t.Fatalf("stream ended after %d of 3 samples", samples)
	}
}
