package feedback

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/state"
	"repro/internal/stream"
)

func tpl(src stream.SourceID, ts stream.Time, vals ...stream.Value) *stream.Tuple {
	return &stream.Tuple{ID: uint64(ts), Source: src, TS: ts, Vals: vals}
}

func comp(n int, t *stream.Tuple) *stream.Composite { return stream.NewComposite(n, t) }

// TestMNSStaysInItsSizeClass: a descriptor is allocated per detection and
// held by the buffer and every producer up the chain, so its Seen claim must
// not move it past the 80-byte size class.
func TestMNSStaysInItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(MNS{}); n > 80 {
		t.Fatalf("feedback.MNS is %d bytes, past the 80-byte size class", n)
	}
}

func mnsA(val stream.Value, expiry stream.Time) *MNS {
	attr := predicate.Attr{Source: 0, Col: 1}
	return &MNS{
		ID:      1,
		Sources: stream.SourceSet(0).Add(0),
		Sig:     Signature{{Attr: attr, Val: val}},
		Preds:   predicate.Conj{{Left: 0, LCol: 1, Right: 2, RCol: 0}},
		Expiry:  expiry,
	}
}

func TestSignatureMatching(t *testing.T) {
	sig := Signature{{Attr: predicate.Attr{Source: 0, Col: 1}, Val: 100}}
	match := comp(3, tpl(0, 5, 0, 100))
	miss := comp(3, tpl(0, 5, 0, 99))
	other := comp(3, tpl(1, 5, 100))
	if !sig.MatchedBy(match) || sig.MatchedBy(miss) || sig.MatchedBy(other) {
		t.Fatal("signature matching wrong")
	}
	if sig.Sources().Count() != 1 {
		t.Fatal("sources wrong")
	}
	mt := NewMarkTable(&metrics.Account{})
	e := mt.ActivateOrigin(&MNS{ID: 1, Sources: sig.Sources(), Sig: sig, Expiry: NoExpiry}, stream.SourceSet(0).Add(1))
	if len(mt.SideSig(e, true)) != 0 || !slices.Equal(mt.SideSig(e, false), sig) {
		t.Fatal("a side of foreign sources must have an empty side signature")
	}
}

// testTable drives one instantiation of the shared MNS table: add-or-extend
// keeps the later anchor and dirties the min; take and takeExpired preserve
// creation order; the min is exact after every step.
func testTable[E holder](t *testing.T, name string, tab *table[E], wrap func(*MNS) E) {
	t.Run(name, func(t *testing.T) {
		order := func() (vals []stream.Value) {
			for _, e := range tab.list {
				vals = append(vals, e.mns().Sig[0].Val)
			}
			return vals
		}
		if tab.nextExpiry() != NoExpiry {
			t.Fatal("empty table has a deadline")
		}
		ms := []*MNS{mnsA(1, 300), mnsA(2, 100), mnsA(3, 200), mnsA(4, 400)}
		var es []E
		for _, m := range ms {
			if _, ok := tab.extend(m); ok {
				t.Fatalf("fresh signature %v found", m.Sig)
			}
			es = append(es, wrap(m))
			tab.insert(es[len(es)-1])
		}
		if tab.nextExpiry() != 100 {
			t.Fatalf("min after inserts: %d", tab.nextExpiry())
		}
		// A duplicate with an earlier expiry changes nothing; a later one
		// raises the held element's anchor, and the min follows.
		if old, ok := tab.extend(mnsA(2, 50)); !ok || old != es[1] || *es[1].anchor() != 100 {
			t.Fatal("earlier duplicate must leave the held anchor alone")
		}
		if _, ok := tab.extend(mnsA(2, 500)); !ok || *es[1].anchor() != 500 || len(tab.list) != 4 {
			t.Fatal("later duplicate must extend, not add")
		}
		if tab.nextExpiry() != 200 {
			t.Fatalf("min after extension: %d", tab.nextExpiry())
		}
		if out := tab.takeExpired(199); len(out) != 0 || tab.nextExpiry() != 200 {
			t.Fatalf("before the minimum is due: took %d, min %d", len(out), tab.nextExpiry())
		}
		if e, ok := tab.take(ms[2]); !ok || e != es[2] {
			t.Fatal("take failed")
		}
		if _, ok := tab.take(ms[2]); ok {
			t.Fatal("double take")
		}
		if got := order(); !slices.Equal(got, []stream.Value{1, 2, 4}) || tab.nextExpiry() != 300 {
			t.Fatalf("after take: order %v min %d", got, tab.nextExpiry())
		}
		exp := tab.takeExpired(400)
		if len(exp) != 2 || exp[0] != es[0] || exp[1] != es[3] {
			t.Fatalf("takeExpired must return creation order, got %v", exp)
		}
		if got := order(); !slices.Equal(got, []stream.Value{2}) || tab.nextExpiry() != 500 {
			t.Fatalf("after takeExpired: order %v min %d", got, tab.nextExpiry())
		}
		tab.take(ms[1])
		if tab.acct.Live() != 0 || tab.nextExpiry() != NoExpiry {
			t.Fatalf("emptied table: live=%d next=%d", tab.acct.Live(), tab.nextExpiry())
		}
	})
}

// TestMNSTable runs the table contract over its three instantiations: the
// blacklist's entries, the MNS buffer, and the mark table's origins.
func TestMNSTable(t *testing.T) {
	acct := &metrics.Account{}
	testTable(t, "blacklist", &NewBlacklist(acct).entries, func(m *MNS) *Entry { return &Entry{MNS: m, Expiry: m.Expiry} })
	testTable(t, "buffer", &NewBuffer(acct).mnss, func(m *MNS) *MNS { return m })
	mt := NewMarkTable(acct)
	testTable(t, "origins", &mt.origins, func(m *MNS) *OriginEntry { return &OriginEntry{MNS: m, Expiry: m.Expiry, Left: m.Sig.Sources()} })
}

func TestBufferAddDedupPurgeProbe(t *testing.T) {
	acct := &metrics.Account{}
	b := NewBuffer(acct)
	m1 := mnsA(100, 1000)
	kept, added := b.Add(m1, false)
	if !added || kept != m1 || b.Len() != 1 {
		t.Fatal("first add failed")
	}
	if kept, added = b.Add(mnsA(100, 2000), false); added || kept != m1 {
		t.Fatal("duplicate signature must return the held MNS")
	}
	if held, ok := b.byProbe.holding(m1); !ok || held != m1 {
		t.Fatal("the buffered MNS is not found by its signature")
	}
	// Probe with matching partner removes it.
	hit := comp(3, tpl(2, 7, 100))
	matched, _ := b.Probe(hit, 1)
	if len(matched) != 1 || b.Len() != 0 || acct.Live() != 0 {
		t.Fatalf("probe: matched=%d len=%d live=%d", len(matched), b.Len(), acct.Live())
	}
	// Expired MNSs are purged.
	b.Add(mnsA(50, 100), false)
	if n := b.Purge(100, 0); n != 1 || b.Len() != 0 {
		t.Fatalf("purge failed: %d", n)
	}
	if acct.Live() != 0 {
		t.Fatalf("buffer leaked %d bytes", acct.Live())
	}
}

func TestBufferProbeMisses(t *testing.T) {
	b := NewBuffer(&metrics.Account{})
	b.Add(mnsA(100, 1000), false)
	// Neither a different value nor an arrival lacking the tested source
	// confirms the MNS's predicate.
	for _, miss := range []*stream.Composite{comp(3, tpl(2, 7, 51)), comp(3, tpl(1, 7, 100))} {
		if matched, _ := b.Probe(miss, 1); len(matched) != 0 || b.Len() != 1 {
			t.Fatal("miss must keep the MNS")
		}
	}
	// Ø is matched by any opposite arrival, ahead of the keyed MNSs.
	empty := &MNS{ID: 9, Expiry: NoExpiry}
	b.Add(empty, false)
	if matched, n := b.Probe(comp(3, tpl(2, 8, 100)), 1); len(matched) != 2 || matched[0] != empty || n != 1 || b.Len() != 0 {
		t.Fatalf("Ø + keyed probe: matched %v after %d comparisons", matched, n)
	}
}

func TestBlacklistLifecycle(t *testing.T) {
	acct := &metrics.Account{}
	bl := NewBlacklist(acct)
	m := mnsA(100, 1000)
	e, created := bl.Ensure(m)
	if !created || bl.Len() != 1 {
		t.Fatal("ensure failed")
	}
	if old, created := bl.Ensure(mnsA(100, 900)); created || old != e {
		t.Fatal("duplicate sig must return the held entry")
	}
	// Park tuples, including a same-signature generalization.
	a1 := comp(3, tpl(0, 10, 1, 100))
	a2 := comp(3, tpl(0, 20, 2, 100))
	bl.Park(e, Suspended{E: state.Entry{C: a1, Seq: 1}, Cursor: 0})
	bl.Park(e, Suspended{E: state.Entry{C: a2, Seq: 2}, Cursor: 0})
	if bl.NumSuspended() != 2 || acct.Live() == 0 {
		t.Fatal("park failed")
	}
	// Arrival with the same signature diverts.
	a3 := comp(3, tpl(0, 30, 3, 100))
	if hit, _ := bl.MatchArrival(a3, 500); hit != e {
		t.Fatal("generalized arrival should divert")
	}
	// Expired entries are skipped at arrival and collected by TakeExpired.
	if hit, _ := bl.MatchArrival(a3, 5000); hit != nil {
		t.Fatal("expired entry must not divert")
	}
	exp := bl.TakeExpired(5000)
	if len(exp) != 1 || bl.Len() != 0 {
		t.Fatal("TakeExpired failed")
	}
	bl.ReleaseTuples(exp[0])
	if acct.Live() != 0 {
		t.Fatalf("blacklist leaked %d bytes", acct.Live())
	}
}

func TestBlacklistTakeAndPurge(t *testing.T) {
	acct := &metrics.Account{}
	bl := NewBlacklist(acct)
	m := mnsA(100, 1000)
	e, _ := bl.Ensure(m)
	old := comp(3, tpl(0, 10, 1, 100))
	young := comp(3, tpl(0, 500, 2, 100))
	bl.Park(e, Suspended{E: state.Entry{C: old, Seq: 1}})
	bl.Park(e, Suspended{E: state.Entry{C: young, Seq: 2}})
	// window 100 at now 200: old (ts10) expires.
	if ts, ok := bl.NextTupleMinTS(); !ok || ts != 10 {
		t.Fatalf("parked min: %d %v", ts, ok)
	}
	if out := bl.TakeExpiredTuples(200, 100); len(out) != 1 || out[0].E.C != old || bl.NumSuspended() != 1 {
		t.Fatalf("take expired tuples: %v", out)
	}
	if ts, ok := bl.NextTupleMinTS(); !ok || ts != 500 {
		t.Fatalf("parked min after purge: %d %v", ts, ok)
	}
	// The entry leaves with its tuples and stops diverting arrivals.
	got, ok := bl.Take(m)
	if !ok || len(got.Tuples) != 1 {
		t.Fatal("take failed")
	}
	if _, ok := bl.NextTupleMinTS(); ok {
		t.Fatal("taken entry's tuples still counted")
	}
	if hit, _ := bl.MatchArrival(young, 0); hit != nil {
		t.Fatal("taken entry still diverts")
	}
}

func TestSuspendedDone(t *testing.T) {
	var s Suspended
	if s.IsDone(5) {
		t.Fatal("phantom done")
	}
	s.MarkDone(5)
	if !s.IsDone(5) || s.IsDone(6) {
		t.Fatal("done bookkeeping wrong")
	}
}

func TestMarkTable(t *testing.T) {
	acct := &metrics.Account{}
	mt := NewMarkTable(acct)
	if !mt.Empty() {
		t.Fatal("fresh table not empty")
	}
	m := &MNS{
		ID:      7,
		Sources: stream.SourceSet(0).Add(0).Add(2),
		Sig: Signature{
			{Attr: predicate.Attr{Source: 0, Col: 0}, Val: 5},
			{Attr: predicate.Attr{Source: 2, Col: 0}, Val: 9},
		},
		Expiry: 1000,
	}
	left := stream.SourceSet(0).Add(0).Add(1)
	e := mt.ActivateOrigin(m, left)
	if e == nil || !slices.Equal(mt.SideSig(e, true), m.Sig[:1]) || !slices.Equal(mt.SideSig(e, false), m.Sig[1:]) {
		t.Fatal("activation/decomposition wrong")
	}
	if mt.ActivateOrigin(m, left) != nil || mt.NumOrigins() != 1 {
		t.Fatal("duplicate origin accepted")
	}
	l := comp(3, tpl(0, 10, 5))
	r := comp(3, tpl(2, 20, 9))
	if got, n := mt.Suppressing(l, r); got != e || n != 2 {
		t.Fatalf("the pair carrying both side signatures: suppressed by %v at %d comparisons, want the origin at 2", got, n)
	}
	// Neither the swapped pair nor one missing a side's values is covered;
	// a miss on the left charges the left lookup only.
	if got, n := mt.Suppressing(r, l); got != nil || n != 1 {
		t.Fatalf("the swapped pair: suppressed by %v at %d comparisons, want none at 1", got, n)
	}
	if got, _ := mt.Suppressing(l, comp(3, tpl(2, 20, 8))); got != nil {
		t.Fatalf("a right input without the right side's value suppressed by %v", got)
	}
	mt.RecordSuppressed(e, state.Entry{C: l, Seq: 1}, state.Entry{C: r, Seq: 2})
	if mt.NumPending() != 1 {
		t.Fatal("pending not recorded")
	}
	got, ok := mt.TakeOrigin(m)
	if !ok || got != e || mt.NumOrigins() != 0 {
		t.Fatal("take origin failed")
	}
	if got, n := mt.Suppressing(l, r); got != nil || n != 0 {
		t.Fatal("suppression survives dissolution")
	}
	mt.ReleasePending(got)
	if acct.Live() != 0 {
		t.Fatalf("mark table leaked %d bytes", acct.Live())
	}
}

func TestPurgePending(t *testing.T) {
	mt := NewMarkTable(&metrics.Account{})
	m := &MNS{ID: 1, Sources: stream.SourceSet(0).Add(0).Add(2),
		Sig: Signature{
			{Attr: predicate.Attr{Source: 0, Col: 0}, Val: 5},
			{Attr: predicate.Attr{Source: 2, Col: 0}, Val: 9},
		}, Expiry: 10000}
	e := mt.ActivateOrigin(m, stream.SourceSet(0).Add(0))
	old := comp(3, tpl(0, 10, 5))
	young := comp(3, tpl(2, 900, 9))
	mt.RecordSuppressed(e, state.Entry{C: old, Seq: 1}, state.Entry{C: young, Seq: 2})
	if n := mt.PurgePending(1000, 100); n != 1 || mt.NumPending() != 0 {
		t.Fatalf("pending purge: %d", n)
	}
}

// TestFPIndexDropsEmptyBuckets pins the index's memory bound: a fingerprint
// is filed exactly as long as it holds an element, alone or beside a twin,
// so a buffer and a blacklist that have seen thousands of distinct value
// patterns hold fingerprints only for the ones present — while the
// attribute-set groups, whose visiting order fixes the comparisons a match
// charges, stay.
func TestFPIndexDropsEmptyBuckets(t *testing.T) {
	acct := &metrics.Account{}
	buf := NewBuffer(acct)
	bl := NewBlacklist(acct)
	for v := stream.Value(1); v <= 2000; v++ {
		m := mnsA(v, 100)
		buf.Add(m, false)
		bl.Ensure(m)
		// A second element under the same fingerprint: the bucket must
		// survive the first removal and go with the second.
		twin := mnsA(v, 100)
		buf.byProbe.add(twin)
		if buf.Buckets() != 1 || bl.Buckets() != 1 {
			t.Fatalf("value %d: %d buffer and %d blacklist buckets for one pattern", v, buf.Buckets(), bl.Buckets())
		}
		buf.byProbe.remove(twin)
		if buf.Buckets() != 1 {
			t.Fatalf("value %d: bucket dropped while it still held an element", v)
		}
		switch v % 3 {
		case 0: // leaves by expiry
			buf.Purge(100, 0)
			bl.TakeExpired(100)
		case 1: // leaves by demand
			buf.mnss.remove(m)
			bl.Take(m)
		default: // leaves through Probe, which has to find it first
			if matched, _ := buf.Probe(comp(3, tpl(2, 5, v)), 1); len(matched) != 1 || matched[0] != m {
				t.Fatalf("value %d: probe matched %v", v, matched)
			}
			bl.Take(m)
		}
		if buf.Buckets() != 0 || bl.Buckets() != 0 || buf.Len() != 0 || bl.Len() != 0 {
			t.Fatalf("value %d: %d/%d buckets, %d/%d elements left", v, buf.Buckets(), bl.Buckets(), buf.Len(), bl.Len())
		}
	}
	if len(buf.byProbe.groups) != 1 || len(bl.bySig.groups) != 1 {
		t.Fatalf("groups must persist: %d buffer, %d blacklist", len(buf.byProbe.groups), len(bl.bySig.groups))
	}
	// The index still works after all that churn.
	buf.Add(mnsA(1, 100), false)
	if matched, n := buf.Probe(comp(3, tpl(2, 5, 1)), 1); len(matched) != 1 || n != 1 {
		t.Fatalf("probe after churn: %d matched, %d comparisons", len(matched), n)
	}
	if acct.Live() != 0 {
		t.Fatalf("leaked %d bytes", acct.Live())
	}
}

// TestBlacklistWalkAndBySeq covers the two in-place access paths core's
// resumption catch-up uses: Walk keeps its place, and visits neither removed
// nor new entries, when the visitor changes the blacklist under it; BySeq
// finds a parked tuple exactly while it is parked.
func TestBlacklistWalkAndBySeq(t *testing.T) {
	bl := NewBlacklist(&metrics.Account{})
	var es []*Entry
	for v := stream.Value(1); v <= 5; v++ {
		e, _ := bl.Ensure(mnsA(v, 100*stream.Time(v)))
		bl.Park(e, Suspended{E: state.Entry{C: comp(3, tpl(0, stream.Time(v), 0, v)), Seq: uint64(10 * v)}})
		es = append(es, e)
	}
	var visited []stream.Value
	bl.Walk(func(e *Entry) {
		v := e.MNS.Sig[0].Val
		visited = append(visited, v)
		if v == 2 {
			bl.Take(es[0].MNS)      // behind the walk
			bl.Take(es[2].MNS)      // ahead of it
			bl.Ensure(mnsA(6, 600)) // new: not this walk's business
		}
	})
	if !slices.Equal(visited, []stream.Value{1, 2, 4, 5}) {
		t.Fatalf("walk visited %v", visited)
	}
	if s := bl.BySeq(40); s == nil || s.E.Seq != 40 {
		t.Fatalf("BySeq(40) = %v", s)
	}
	if bl.BySeq(30) != nil || bl.BySeq(41) != nil {
		t.Fatal("BySeq found a tuple that left with its entry, or never was")
	}
	// Tuple 4 (MinTS 4) leaves by its own window; tuple 5 stays.
	if taken := bl.TakeExpiredTuples(14, 10); len(taken) != 2 || bl.BySeq(40) != nil || bl.BySeq(50) == nil {
		t.Fatalf("after expiry: took %d, 40→%v, 50→%v", len(taken), bl.BySeq(40), bl.BySeq(50))
	}
	if ts, ok := bl.OldestParkedTS(); !ok || ts != 5 {
		t.Fatalf("OldestParkedTS = %d, %t", ts, ok)
	}
}

// TestMarkIndexMatchesScan holds the mark table's two side indexes to the
// loop they replaced, under random activation, resumption and expiry of
// origins over several attribute sets: Suppressing must find, of the origins
// whose non-empty signatures on both sides a pair matches, the earliest made,
// and charge one comparison per attribute of every attribute set the left
// index has seen, and of every one the right has seen when the left found an
// origin.
func TestMarkIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mt := NewMarkTable(&metrics.Account{})
	// Sources 0 and 1 feed the left input, 2 and 3 the right.
	leftSrc := stream.SourceSet(0).Add(0).Add(1)
	rightSrc := stream.SourceSet(0).Add(2).Add(3)
	randSig := func(srcs ...stream.SourceID) Signature {
		var sig Signature
		for _, src := range srcs {
			for col := 0; col < 2; col++ {
				if rng.Intn(2) == 0 {
					sig = append(sig, SigEntry{Attr: predicate.Attr{Source: src, Col: col}, Val: stream.Value(rng.Intn(3))})
				}
			}
		}
		return sig
	}
	randComp := func(srcs ...stream.SourceID) *stream.Composite {
		var c *stream.Composite
		for _, src := range srcs {
			if rng.Intn(4) == 0 && c != nil {
				continue // some composites lack a source
			}
			x := comp(4, tpl(src, 1, stream.Value(rng.Intn(3)), stream.Value(rng.Intn(3))))
			if c == nil {
				c = x
			} else {
				c = stream.Join(c, x)
			}
		}
		return c
	}
	charge := func(x *fpIndex[*OriginEntry]) (n int) {
		for _, g := range x.groups {
			n += len(g.attrs)
		}
		return n
	}

	var origins []*OriginEntry
	now, id := stream.Time(0), uint64(0)
	for step := 0; step < 4000; step++ {
		now++
		switch rng.Intn(6) {
		case 0, 1, 2: // a Type II suspension; one side's restriction may be empty
			id++
			m := &MNS{ID: id, Sources: leftSrc | rightSrc, Sig: randSig(0, 1, 2, 3), Expiry: now + stream.Time(rng.Intn(60))}
			if len(m.Sig) == 0 {
				break // the Ø MNS is never a Type II origin
			}
			if e := mt.ActivateOrigin(m, leftSrc); e != nil {
				origins = append(origins, e)
			}
		case 3: // resumption
			if len(origins) > 0 {
				k := rng.Intn(len(origins))
				if e, ok := mt.TakeOrigin(origins[k].MNS); !ok || e != origins[k] {
					t.Fatalf("step %d: origin %v not taken", step, origins[k].MNS)
				}
				origins = slices.Delete(origins, k, k+1)
			}
		case 4: // expiry
			mt.TakeExpiredOrigins(now)
			origins = slices.DeleteFunc(origins, func(e *OriginEntry) bool { return e.Expiry <= now })
		}
		if mt.NumOrigins() != len(origins) {
			t.Fatalf("step %d: table holds %d origins, model %d", step, mt.NumOrigins(), len(origins))
		}

		l, r := randComp(0, 1), randComp(2, 3)
		var want *OriginEntry
		leftHit := false
		for _, e := range origins {
			ls, rs := slices.Clone(mt.SideSig(e, true)), mt.SideSig(e, false)
			lm := len(ls) > 0 && ls.MatchedBy(l)
			leftHit = leftHit || lm
			if want == nil && lm && len(rs) > 0 && rs.MatchedBy(r) {
				want = e
			}
		}
		got, n := mt.Suppressing(l, r)
		if got != want {
			t.Fatalf("step %d: pair %v, %v suppressed by %v, the scan finds %v", step, l, r, got, want)
		}
		wantN := charge(&mt.bySide[0])
		if leftHit {
			wantN += charge(&mt.bySide[1])
		}
		if len(origins) > 0 && n != wantN {
			t.Fatalf("step %d: charged %d comparisons, one per attribute of every set seen is %d", step, n, wantN)
		}
	}
	if len(origins) == 0 {
		t.Fatal("degenerate run: nothing left to match against")
	}
	for len(origins) > 0 {
		mt.TakeOrigin(origins[0].MNS)
		origins = origins[1:]
	}
	if n := mt.Buckets(); n != 0 {
		t.Fatalf("%d fingerprints filed in an empty mark table", n)
	}
}

// TestEmptySideSignatureMarksNothing pins what an origin does on a side its
// MNS does not constrain: nothing. Filed under the empty attribute set it
// would match every input of that side — and so suppress pairs the MNS says
// nothing about.
func TestEmptySideSignatureMarksNothing(t *testing.T) {
	mt := NewMarkTable(&metrics.Account{})
	// A Type II MNS spans both inputs (sources 0 and 2) but its signature
	// constrains the left one only.
	m := &MNS{
		ID:      9,
		Sources: stream.SourceSet(0).Add(0).Add(2),
		Sig:     Signature{{Attr: predicate.Attr{Source: 0, Col: 0}, Val: 5}},
		Expiry:  1000,
	}
	e := mt.ActivateOrigin(m, stream.SourceSet(0).Add(0))
	if e == nil || len(mt.SideSig(e, true)) != 1 || len(mt.SideSig(e, false)) != 0 {
		t.Fatalf("restriction wrong: %+v", e)
	}
	l, r := comp(3, tpl(0, 10, 5)), comp(3, tpl(2, 20, 5))
	// The left lookup finds the origin at one comparison; the right index
	// has filed nothing, so asking it costs nothing and finds nothing.
	if got, n := mt.Suppressing(l, r); got != nil || n != 1 {
		t.Fatalf("a pair suppressed by %v at %d comparisons under an MNS that constrains one side only", got, n)
	}
	if got := mt.Buckets(); got != 1 {
		t.Fatalf("%d fingerprints filed, want the left side's one", got)
	}
	if _, ok := mt.TakeOrigin(m); !ok || mt.Buckets() != 0 {
		t.Fatalf("taking the origin left %d fingerprints filed", mt.Buckets())
	}
}
