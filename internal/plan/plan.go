// Package plan constructs execution plans: the X-Join binary trees of
// Table II (bushy and left-deep) and arbitrary user-specified trees.
//
// A run has one Built for its whole life. The operator tree inside it —
// Joins and Feeds — is the only part a shape decides, and the only part a
// mid-run migration replaces (Reshape); the sink, run ledger, account, tracer,
// delivery semantics and the root's consumer belong to the run and are never
// re-pointed. Arrivals enter through one step, Ingest, whoever drives them:
// the engine's loop or a snapshot replay.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// Node is a plan-shape tree: leaves name sources, internal nodes are binary
// joins.
type Node struct {
	Source stream.SourceID // valid when leaf
	Left   *Node
	Right  *Node
}

// Leaf creates a leaf node.
func Leaf(id stream.SourceID) *Node { return &Node{Source: id} }

// J creates an internal join node.
func J(l, r *Node) *Node { return &Node{Left: l, Right: r} }

// IsLeaf reports whether the node is a source leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Sources returns the set of sources under the node.
func (n *Node) Sources() stream.SourceSet {
	if n.IsLeaf() {
		return stream.SourceSet(0).Add(n.Source)
	}
	return n.Left.Sources().Union(n.Right.Sources())
}

// Render prints the shape with the paper's notation, e.g. ((A B) C).
func (n *Node) Render(cat *stream.Catalog) string {
	if n.IsLeaf() {
		return cat.Source(n.Source).Name
	}
	return "(" + n.Left.Render(cat) + " " + n.Right.Render(cat) + ")"
}

// Canonical renders the shape catalog-free, over source ids — a stable
// identity usable as a map key, e.g. "((0 1) 2)". The adaptive
// re-optimizer keys candidate shapes and migration decisions on it
// (internal/adapt), including across shard replicas whose plans are
// distinct object graphs of the same shape.
func (n *Node) Canonical() string {
	if n.IsLeaf() {
		return fmt.Sprintf("%d", n.Source)
	}
	return "(" + n.Left.Canonical() + " " + n.Right.Canonical() + ")"
}

// LeftDeep builds the left-deep shape of Table II: (((A B) C) D) ...
func LeftDeep(n int) *Node {
	if n < 2 {
		panic("plan: left-deep needs >= 2 sources")
	}
	t := Leaf(0)
	for i := 1; i < n; i++ {
		t = J(t, Leaf(stream.SourceID(i)))
	}
	return t
}

// Bushy builds the bushy shapes of Table II:
//
//	N=4: (A B) (C D)
//	N=5: ((A B) (C D)) E
//	N=6: ((A B) (C D)) (E F)
//	N=7: ((A B) (C D)) ((E F) G)
//	N=8: ((A B) (C D)) ((E F) (G H))
//
// For other N it produces the balanced binary tree over the sources, which
// coincides with the table for all listed values.
func Bushy(n int) *Node {
	if n < 2 {
		panic("plan: bushy needs >= 2 sources")
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = Leaf(stream.SourceID(i))
	}
	for len(nodes) > 1 {
		var next []*Node
		for i := 0; i+1 < len(nodes); i += 2 {
			next = append(next, J(nodes[i], nodes[i+1]))
		}
		if len(nodes)%2 == 1 {
			// The odd leftover rises to the next level unchanged, so N=5
			// yields ((A B) (C D)) E and N=7 yields ((A B) (C D)) ((E F) G),
			// exactly as in Table II.
			next = append(next, nodes[len(nodes)-1])
		}
		nodes = next
	}
	return nodes[0]
}

// TableII resolves the bushy/left-deep choice every front end exposes (the
// -bushy flag, Query.Bushy) to its Table II shape.
func TableII(n int, bushy bool) *Node {
	if bushy {
		return Bushy(n)
	}
	return LeftDeep(n)
}

// ShapeName is the display name of the same choice.
func ShapeName(bushy bool) string {
	if bushy {
		return "bushy"
	}
	return "left-deep"
}

// Feed tells the engine where a source's arrivals enter the plan.
type Feed struct {
	Op   operator.Consumer
	Port operator.Port
}

// Built is a wired executable plan.
type Built struct {
	Catalog *stream.Catalog
	Window  stream.Time
	Sink    *operator.Sink
	// Joins lists every join operator bottom-up (producers before
	// consumers) — the engine's sweep order.
	Joins []*core.JoinOp
	// Feeds maps each source to its entry point.
	Feeds map[stream.SourceID]Feed
	// RunLedger counts what no live operator owns: sink finals, sweeps, late
	// drops, migrations, adapt units, dedup dups, and the folded-in ledgers of
	// operators a migration retired (Reshape). It is not the plan-wide figure
	// — that is Totals.
	RunLedger *metrics.Counters
	// Account is the shared live-byte substrate.
	Account *metrics.Account
	// Trace is the attached observability layer; nil (the default) disables
	// it. Set it with SetTrace — deliberately not a build Option, so the
	// throwaway plans Replicate and shadow scoring construct stay untraced
	// unless explicitly attached.
	Trace *obs.Tracer

	nextMNS uint64
	// reshapes counts the trees Reshape wired; it labels their operators'
	// accounts apart from the retired trees' (wire).
	reshapes int
	// exact is the delivery semantics last applied by SetExact, remembered so
	// replicas and reshaped trees start under it.
	exact bool

	// The build spec is retained so the plan can be replicated for sharded
	// execution (internal/shard): preds/shape/opt plus the shared Catalog
	// reconstruct an identical, fully independent operator tree.
	preds predicate.Conj
	shape *Node
	opt   Options
}

// Options configures plan construction.
type Options struct {
	Window stream.Time
	Mode   core.Mode
	// KeepResults makes the sink retain all results: exp.Params.RunKeys
	// (tests and RESULTS.md's hostile rows) and examples/quickstart set it.
	KeepResults bool
	// NoStateIndex disables the hash-indexed join states (DESIGN.md §3),
	// forcing every probe down the linear scan path — the paper's execution
	// model, which the figure sweeps and the equivalence tests run; the
	// -indexed flag turns it off. Joins whose crossing predicates yield no
	// equi key (cross products) fall back to scans regardless.
	NoStateIndex bool
}

// Query is the one continuous query every front end runs: the N-source
// clique join (predicate.Clique) under its Table II shape, in one mode, over
// a sliding window. exp.Params and serve.Config both embed it.
type Query struct {
	N int
	// Bushy picks Table II's bushy shape; false picks left-deep.
	Bushy  bool
	Window stream.Time
	Mode   core.Mode
	// Indexed runs the plan with hash-indexed join states (DESIGN.md §3).
	// The default (false) reproduces the paper's 2008 prototype, whose
	// states are scanned linearly — the execution model all of Figures
	// 10-17 assume. With indexing on, REF's probe cost collapses to the
	// matching pairs and the paper's JIT-vs-REF cost shape no longer
	// holds; RESULTS.md's extension section records that comparison.
	Indexed bool
	// Band, when > 0, replaces every equi-join predicate with its band
	// counterpart |l - r| <= Band. Band joins defeat hash keying and
	// key-partitioned sharding: plans fall back to linear probes and
	// broadcast routing (DESIGN.md §8).
	Band stream.Value
}

// CheckSources is the source-count rule, which a generated trace, with no
// query, obeys too.
func CheckSources(n int) error {
	switch {
	case n < 2:
		return fmt.Errorf("need at least 2 sources (N=%d)", n)
	case n > stream.MaxSources:
		return fmt.Errorf("at most %d sources fit a source set (N=%d)", stream.MaxSources, n)
	}
	return nil
}

// Validate states the query's range rules, once for every front end.
func (q Query) Validate() error {
	switch {
	case q.Window <= 0:
		return fmt.Errorf("window must be positive (window=%v)", q.Window)
	case q.Band < 0:
		return fmt.Errorf("band tolerance cannot be negative (%d)", q.Band)
	}
	return CheckSources(q.N)
}

// Build wires the query; keep makes the sink retain every result.
func (q Query) Build(keep bool) *Built {
	cat, preds := predicate.Clique(q.N)
	if q.Band > 0 {
		preds = preds.WithTol(q.Band)
	}
	return BuildTree(cat, preds, TableII(q.N, q.Bushy), Options{
		Window: q.Window, Mode: q.Mode, NoStateIndex: !q.Indexed, KeepResults: keep,
	})
}

// BuildTree wires a Node shape into JoinOps plus a sink.
func BuildTree(cat *stream.Catalog, preds predicate.Conj, shape *Node, opt Options) *Built {
	b := &Built{
		Catalog:   cat,
		Window:    opt.Window,
		RunLedger: &metrics.Counters{},
		Account:   &metrics.Account{},
		preds:     preds,
		shape:     shape,
		opt:       opt,
	}
	b.Sink = operator.NewSink(b.RunLedger, opt.KeepResults)
	b.wireTree(b.Sink)
	return b
}

// wireTree builds the operator tree of b.shape — Joins and Feeds, with MNS ids
// starting over — and points its root at out.
func (b *Built) wireTree(out operator.Consumer) {
	b.Joins, b.Feeds, b.nextMNS = nil, make(map[stream.SourceID]Feed), 0
	if b.shape.IsLeaf() {
		panic("plan: root must be a join")
	}
	b.wire(b.shape).SetConsumer(out, operator.Left)
}

// Shape returns the plan's shape tree. Together with Preds it lets the
// shard partitioner re-derive each operator's equi-key columns
// (predicate.Conj.EquiKeyCols) and intersect them up the tree into a
// plan-wide partition key (DESIGN.md §5).
func (b *Built) Shape() *Node { return b.shape }

// Preds returns the query conjunction the plan was built from.
func (b *Built) Preds() predicate.Conj { return b.preds }

// Opt returns the options the plan was built with. Shadow scoring
// (internal/adapt) derives candidate-plan options from them.
func (b *Built) Opt() Options { return b.opt }

// Reshape is the plan half of a mid-run migration (internal/adapt, DESIGN.md
// §7): it retires b's operators, folding their ledgers into the run ledger so
// Totals is continuous, and wires a fresh operator tree of the given shape in
// their place. Everything else is the run's and stays where it is: the sink,
// the run ledger, the account, the tracer, the delivery semantics and whatever
// consumes the root's output (a dedup gate spliced there keeps gating). The
// new operators are empty; the caller replays a SnapshotInWindow cut taken
// before the call into them.
func (b *Built) Reshape(shape *Node) {
	for _, j := range b.Joins {
		b.RunLedger.Add(j.Counters())
	}
	out := b.RootJoin().Consumer()
	b.shape, b.reshapes = shape, b.reshapes+1
	b.wireTree(out)
	b.SetExact(b.exact)
	b.SetTrace(b.Trace)
}

// Totals is the plan-wide counter figure: the run ledger plus every live
// operator's own.
func (b *Built) Totals() metrics.Counters {
	t := *b.RunLedger
	for _, j := range b.Joins {
		t.Add(j.Counters())
	}
	return t
}

// Ops returns the live operators' ledgers by name, in plan order.
func (b *Built) Ops() []metrics.OpCounters {
	ops := make([]metrics.OpCounters, len(b.Joins))
	for i, j := range b.Joins {
		ops[i] = metrics.OpCounters{Name: j.Name(), Counters: *j.Counters()}
	}
	return ops
}

// RootJoin returns the root operator, the last of the bottom-up Joins.
// Callers that re-route the plan's output — a dedup gate, the server's
// deliverer — splice in through its SetConsumer.
func (b *Built) RootJoin() *core.JoinOp { return b.Joins[len(b.Joins)-1] }

// SnapshotInWindow exports every base tuple still inside the window at the
// cut, in global arrival order — the plan-level §2 snapshot cut (DESIGN.md
// §7). Between arrivals, each in-window base tuple sits in exactly one
// place: its source's feed side, either active in the state or parked in a
// blacklist (core.JoinOp.SnapshotBase). Tuple IDs are assigned in global
// delivery order by the source merge, so ordering by (TS, ID, Source)
// reconstructs the original interleaving exactly; replaying the snapshot
// into a freshly built plan yields the state that plan would hold had it
// been started one window before the cut.
func (b *Built) SnapshotInWindow(cut stream.Time) []*stream.Tuple {
	var out []*stream.Tuple
	for _, f := range b.Feeds {
		out = append(out, f.Op.(*core.JoinOp).SnapshotBase(f.Port, cut)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// Ingest is the one arrival step: t enters the plan at its source's feed as a
// single-component composite and drives the pipeline to quiescence. Sweeping
// first is the caller's business (the engine's scheduler, ReplayInWindow).
func (b *Built) Ingest(t *stream.Tuple) {
	f, ok := b.Feeds[t.Source]
	if !ok {
		panic(fmt.Sprintf("plan: no feed for source %d", t.Source))
	}
	f.Op.Consume(stream.NewComposite(b.Catalog.NumSources(), t), f.Port)
}

// ReplayInWindow feeds snapshot rows back through the plan in order: each
// row is preceded by a full expiry sweep at its timestamp (charged to
// RunLedger.Sweeps) and then ingested, exactly the arrival discipline the
// engine applies. Replaying a SnapshotInWindow cut into empty operators — a
// freshly built plan, or one just reshaped — yields the state they would hold
// had they been running since one window before the cut (DESIGN.md §7): the
// restore half of both the adaptive migration handoff (internal/adapt) and
// the durable checkpoint recovery (internal/checkpoint, internal/serve).
func (b *Built) ReplayInWindow(rows []*stream.Tuple) {
	for _, t := range rows {
		b.RunLedger.Sweeps += uint64(len(b.Joins))
		b.Sweep(t.TS)
		b.Ingest(t)
	}
}

// Replicate builds a fresh plan identical to b — same catalog, predicates,
// shape, options and delivery semantics, but new operators, run ledger,
// account and sink, sharing no mutable state with b. A replica is the unit
// of scale-out in internal/shard: each engine goroutine drives its own
// replica, so no operator-level locking is ever needed.
func (b *Built) Replicate() *Built {
	nb := BuildTree(b.Catalog, b.preds, b.shape, b.opt)
	nb.SetExact(b.exact)
	return nb
}

// SetExact switches every join of the wired plan between exact-delivery
// recovery and the paper prototype's drop-at-expiry semantics
// (internal/core/expiry.go, DESIGN.md §4). Like the tracer it is not a build
// Option: the engine applies it per run (on iff the run drains) and the
// server before its recovery replay; Replicate and Reshape hand the setting
// to the operators they construct.
func (b *Built) SetExact(on bool) {
	b.exact = on
	for _, j := range b.Joins {
		j.SetExact(on)
	}
}

// SetTrace attaches (or, with nil, detaches) an observability tracer to the
// wired plan: every join and the sink get their event hooks, and the tracer
// is bound to the plan's measurement substrate (the plan is its obs.Ledger)
// for sampling. Called once after build, and again by Reshape so the new
// operators get their hooks and the sampler restarts its per-operator
// baselines (DESIGN.md §9).
func (b *Built) SetTrace(tr *obs.Tracer) {
	b.Trace = tr
	for _, j := range b.Joins {
		j.SetTrace(tr)
	}
	b.Sink.SetTrace(tr)
	tr.Bind(b, b.Account)
}

// NextMNS hands out plan-unique MNS identifiers.
func (b *Built) NextMNS() uint64 {
	b.nextMNS++
	return b.nextMNS
}

// wire recursively builds the operator for an internal node and returns it;
// a leaf child becomes a feed of its parent.
func (b *Built) wire(n *Node) *core.JoinOp {
	cat, preds, opt := b.Catalog, b.preds, b.opt
	var leftProd, rightProd operator.Producer
	var leftOp, rightOp *core.JoinOp
	if !n.Left.IsLeaf() {
		leftOp = b.wire(n.Left)
		leftProd = leftOp
	}
	if !n.Right.IsLeaf() {
		rightOp = b.wire(n.Right)
		rightProd = rightOp
	}
	// An operator charges an account of its own under the plan's. A reshaped
	// tree's are labelled by the Reshape that wired them ("Op3.1" is the first
	// reshaped tree's Op3): names go by position, and after a change of shape
	// the operator at a position is another join, whose bytes must not land
	// in the retired one's row.
	name := fmt.Sprintf("Op%d", len(b.Joins)+1)
	label := name
	if b.reshapes > 0 {
		label = fmt.Sprintf("%s.%d", name, b.reshapes)
	}
	j := core.NewJoin(core.Config{
		Name:         name,
		NumSources:   cat.NumSources(),
		Window:       opt.Window,
		Preds:        preds,
		Mode:         opt.Mode,
		Account:      b.Account.Op(label),
		NextMNS:      b.NextMNS,
		LeftSources:  n.Left.Sources(),
		RightSources: n.Right.Sources(),
		Indexed:      !opt.NoStateIndex,
		LeftProd:     leftProd,
		RightProd:    rightProd,
	})
	if leftOp != nil {
		leftOp.SetConsumer(j, operator.Left)
	} else {
		b.Feeds[n.Left.Source] = Feed{Op: j, Port: operator.Left}
	}
	if rightOp != nil {
		rightOp.SetConsumer(j, operator.Right)
	} else {
		b.Feeds[n.Right.Source] = Feed{Op: j, Port: operator.Right}
	}
	b.Joins = append(b.Joins, j)
	return j
}

// Sweep runs the expiry sweep over every join, producers first.
func (b *Built) Sweep(now stream.Time) {
	for _, j := range b.Joins {
		j.Sweep(now)
	}
}

// Describe renders a one-line summary of the plan.
func (b *Built) Describe() string {
	var parts []string
	for _, j := range b.Joins {
		parts = append(parts, j.String())
	}
	return strings.Join(parts, " ; ")
}
