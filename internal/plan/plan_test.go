package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/operator"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// TestTableIIShapes verifies the plan shapes against Table II of the paper.
func TestTableIIShapes(t *testing.T) {
	// Rendered with explicit outer parentheses; the inner structure matches
	// Table II exactly.
	bushy := map[int]string{
		4: "((A B) (C D))",
		5: "(((A B) (C D)) E)",
		6: "(((A B) (C D)) (E F))",
		7: "(((A B) (C D)) ((E F) G))",
		8: "(((A B) (C D)) ((E F) (G H)))",
	}
	for n, want := range bushy {
		cat, _ := predicate.Clique(n)
		got := Bushy(n).Render(cat)
		if got != want {
			t.Errorf("bushy N=%d: got %s want %s", n, got, want)
		}
	}
	ld := map[int]string{
		3: "((A B) C)",
		4: "(((A B) C) D)",
		5: "((((A B) C) D) E)",
		6: "(((((A B) C) D) E) F)",
	}
	for n, want := range ld {
		cat, _ := predicate.Clique(n)
		got := LeftDeep(n).Render(cat)
		if got != want {
			t.Errorf("left-deep N=%d: got %s want %s", n, got, want)
		}
	}
}

func TestNodeSources(t *testing.T) {
	n := J(J(Leaf(0), Leaf(1)), Leaf(2))
	if n.Sources().Count() != 3 || !n.Sources().Has(2) {
		t.Fatal("sources wrong")
	}
	if !Leaf(1).IsLeaf() || n.IsLeaf() {
		t.Fatal("leaf detection wrong")
	}
}

func TestBuildTreeWiring(t *testing.T) {
	cat, conj := predicate.Clique(4)
	b := BuildTree(cat, conj, Bushy(4), Options{Window: stream.Minute, Mode: core.JIT()})
	if len(b.Joins) != 3 {
		t.Fatalf("want 3 joins for N=4, got %d", len(b.Joins))
	}
	// Bottom-up order: the root comes last, and it is what feeds the sink.
	if out, ok := b.RootJoin().Consumer().(*operator.Sink); !ok || out != b.Sink {
		t.Fatalf("the last join feeds %T, want the plan's sink", b.RootJoin().Consumer())
	}
	// Every source has a feed.
	for i := 0; i < 4; i++ {
		if _, ok := b.Feeds[stream.SourceID(i)]; !ok {
			t.Fatalf("source %d has no feed", i)
		}
	}
	// MNS ids unique and monotonic.
	a, bid := b.NextMNS(), b.NextMNS()
	if a == 0 || bid <= a {
		t.Fatal("NextMNS not monotonic")
	}
	if b.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestBuildLeftDeep(t *testing.T) {
	cat, conj := predicate.Clique(5)
	b := BuildTree(cat, conj, LeftDeep(5), Options{Window: stream.Minute, Mode: core.REF()})
	if len(b.Joins) != 4 {
		t.Fatalf("want 4 joins for left-deep N=5, got %d", len(b.Joins))
	}
	// In a left-deep plan every non-leaf join's right input is a raw source.
	for i, j := range b.Joins {
		if i == 0 {
			continue
		}
		_ = j
	}
}

// TestReshapeKeepsRootConsumer pins what a migration leaves alone: Reshape
// swaps the operator tree inside the same Built, and whatever was spliced at
// the old root — here a dedup gate, as adapt and serve do — consumes the new
// root's output. Replaying the in-window snapshot regenerates the delivered
// final, the gate absorbs it, and the next live final still reaches the sink
// through it; the run ledger holds the retired operators' work, and Ingest
// refuses a source the plan has no feed for.
func TestReshapeKeepsRootConsumer(t *testing.T) {
	cat, conj := predicate.Clique(3)
	b := BuildTree(cat, conj, LeftDeep(3), Options{Window: stream.Minute, Mode: core.JIT(), KeepResults: true})
	b.SetExact(true)
	var dups uint64
	gate := operator.NewDedup(b.Sink, &dups)
	b.RootJoin().SetConsumer(gate, operator.Left)
	sink, ledger, acct := b.Sink, b.RunLedger, b.Account

	id := uint64(0)
	ingest := func(src stream.SourceID, ts stream.Time) {
		id++
		b.Sweep(ts)
		b.Ingest(&stream.Tuple{ID: id, Source: src, TS: ts, Vals: make([]stream.Value, cat.Source(src).NumCols())})
	}
	for src := stream.SourceID(0); src < 3; src++ {
		ingest(src, stream.Time(src+1)*stream.Second)
	}
	if sink.Count() != 1 || dups != 0 {
		t.Fatalf("before the migration: %d finals, %d dups, want 1 and 0", sink.Count(), dups)
	}
	var retired uint64
	for _, j := range b.Joins {
		retired += j.Counters().Results
	}

	cut := 4 * stream.Second
	snap := b.SnapshotInWindow(cut)
	shape := J(Leaf(0), J(Leaf(1), Leaf(2)))
	b.Reshape(shape)
	if b.Sink != sink || b.RunLedger != ledger || b.Account != acct || b.Shape() != shape || len(b.Joins) != 2 {
		t.Fatalf("Reshape replaced more than the tree: %s", b.Describe())
	}
	if got := b.RootJoin().Consumer(); got != operator.Consumer(gate) {
		t.Fatalf("new root feeds %T, want the gate spliced at the old one", got)
	}
	if ledger.Results != retired || retired == 0 || b.Totals().Results != retired {
		t.Errorf("run ledger holds %d results after the fold, want the retired operators' %d", ledger.Results, retired)
	}
	b.ReplayInWindow(snap)
	if len(snap) != 3 || sink.Count() != 1 || dups != 1 {
		t.Fatalf("replay of %d rows: %d finals, %d dups, want the one regeneration absorbed", len(snap), sink.Count(), dups)
	}
	ingest(0, cut)
	if sink.Count() != 2 || dups != 1 {
		t.Fatalf("after the migration: %d finals, %d dups, want a second final through the gate", sink.Count(), dups)
	}
	if r := b.Replicate(); r.Shape() != shape || r.Sink == sink || r.RootJoin().Consumer() != operator.Consumer(r.Sink) {
		t.Error("Replicate of a reshaped plan is not a fresh plan of the new shape")
	}

	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "no feed for source 7") {
			t.Fatalf("Ingest on an unfed source: recovered %v, want a panic naming source 7", r)
		}
	}()
	b.Ingest(&stream.Tuple{ID: 99, Source: 7, TS: cut})
}
