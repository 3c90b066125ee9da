// Package predicate models the join and selection conditions of a
// continuous query. Queries are conjunctions of equi-join predicates between
// source columns (the paper's clique-join workloads) plus optional
// single-source selection filters (Sec. V, Fig. 9a).
package predicate

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stream"
)

// Eq is one join predicate between two source columns. With Tol == 0 (the
// zero value, and the only form the paper's workloads use) it is the
// equi-join Left.LCol = Right.RCol. With Tol > 0 it is the band join
// |Left.LCol - Right.RCol| <= Tol — a non-equi predicate that deliberately
// defeats hash keying: EquiKeyCols and EquiClosure skip band predicates, so
// joins whose crossing conjunction is pure-band fall back to linear state
// scans and broadcast sharding (DESIGN.md §8).
type Eq struct {
	Left  stream.SourceID
	LCol  int
	Right stream.SourceID
	RCol  int
	// Tol is the band half-width; 0 means exact equality.
	Tol stream.Value
}

// IsBand reports whether this is a band (non-equi) predicate.
func (e Eq) IsBand() bool { return e.Tol != 0 }

// matches applies the predicate's comparison to two resolved values.
func (e Eq) matches(a, b stream.Value) bool {
	if e.Tol == 0 {
		return a == b
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= e.Tol
}

// Across reports whether the predicate links a source in a to a source in b.
func (e Eq) Across(a, b stream.SourceSet) bool {
	return (a.Has(e.Left) && b.Has(e.Right)) || (a.Has(e.Right) && b.Has(e.Left))
}

// Holds evaluates the predicate on two composites that, together, contain
// both endpoints. Missing components make the predicate vacuously true
// (it will be checked by a later operator that sees both sides).
func (e Eq) Holds(a, b *stream.Composite) bool {
	lt := a.Comp(e.Left)
	if lt == nil {
		lt = b.Comp(e.Left)
	}
	rt := a.Comp(e.Right)
	if rt == nil {
		rt = b.Comp(e.Right)
	}
	if lt == nil || rt == nil {
		return true
	}
	return e.matches(lt.Vals[e.LCol], rt.Vals[e.RCol])
}

func (e Eq) String() string {
	if e.IsBand() {
		return fmt.Sprintf("|s%d.c%d-s%d.c%d|<=%d", e.Left, e.LCol, e.Right, e.RCol, e.Tol)
	}
	return fmt.Sprintf("s%d.c%d=s%d.c%d", e.Left, e.LCol, e.Right, e.RCol)
}

// Conj is a conjunction of equi-join predicates — the WHERE clause of the
// query as far as joins are concerned.
type Conj []Eq

// TouchingAcross returns the predicates that link the single source src to
// any source in the opposite set.
func (c Conj) TouchingAcross(src stream.SourceID, opposite stream.SourceSet) Conj {
	var out Conj
	for _, e := range c {
		if e.Left == src && opposite.Has(e.Right) {
			out = append(out, e)
		} else if e.Right == src && opposite.Has(e.Left) {
			out = append(out, e)
		}
	}
	return out
}

// SourcesLinkedTo returns, for a composite over set own, the subset of its
// sources that participate in at least one predicate crossing to opposite.
// These are the lattice atoms of Identify_MNS.
func (c Conj) SourcesLinkedTo(own, opposite stream.SourceSet) []stream.SourceID {
	var set stream.SourceSet
	for _, e := range c {
		if own.Has(e.Left) && opposite.Has(e.Right) {
			set = set.Add(e.Left)
		}
		if own.Has(e.Right) && opposite.Has(e.Left) {
			set = set.Add(e.Right)
		}
	}
	return set.IDs()
}

// EquiKeyCols derives the aligned equi-join key columns of the crossing
// predicates between the source sets left and right: for every predicate
// with one endpoint in each set, lk receives the left-set column and rk the
// right-set column, at the same position. Two composites (one per side)
// satisfy all crossing predicates exactly when their value vectors at lk and
// rk are equal — the property the hash-indexed join states of DESIGN.md §3
// rely on. ok is false when no predicate crosses the two sets (the join is a
// cross product and keying is meaningless); callers must then fall back to
// linear scans. Band predicates (Tol != 0) cannot be keyed — hash equality
// of the key vectors would wrongly reject within-band pairs — so they are
// skipped here; a join whose crossing predicates are all band gets ok=false
// and takes the linear probe path. Mixed conjunctions still key on the equi
// subset: every crossing predicate (band ones included) is re-evaluated on
// each candidate pair, so keying on the subset only narrows candidates, it
// never changes the match set.
func (c Conj) EquiKeyCols(left, right stream.SourceSet) (lk, rk []Attr, ok bool) {
	for _, e := range c {
		if e.IsBand() {
			continue
		}
		switch {
		case left.Has(e.Left) && right.Has(e.Right):
			lk = append(lk, Attr{Source: e.Left, Col: e.LCol})
			rk = append(rk, Attr{Source: e.Right, Col: e.RCol})
		case left.Has(e.Right) && right.Has(e.Left):
			lk = append(lk, Attr{Source: e.Right, Col: e.RCol})
			rk = append(rk, Attr{Source: e.Left, Col: e.LCol})
		}
	}
	return lk, rk, len(lk) > 0
}

// EquiClosure returns the equivalence classes of column attributes under
// the transitive closure of the conjunction: two attributes share a class
// when a chain of equi-predicates equates them, so in any composite
// satisfying the whole conjunction every attribute of a class holds the
// same value. This is the soundness basis of key-partitioned sharding
// (DESIGN.md §5): hash-routing each source by its attribute of one class
// sends all components of any final result to the same shard. Classes are
// sorted internally and between each other by (Source, Col), so the result
// is deterministic; classes with a single attribute (columns no predicate
// touches) are omitted.
func (c Conj) EquiClosure() [][]Attr {
	parent := make(map[Attr]Attr)
	var find func(a Attr) Attr
	find = func(a Attr) Attr {
		p, ok := parent[a]
		if !ok || p == a {
			return a
		}
		r := find(p)
		parent[a] = r
		return r
	}
	union := func(a, b Attr) {
		if _, ok := parent[a]; !ok {
			parent[a] = a
		}
		if _, ok := parent[b]; !ok {
			parent[b] = b
		}
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, e := range c {
		// Band predicates do not equate their endpoints — two within-band
		// values can hash to different shards — so they contribute no edge
		// to the closure. Sources reachable only through band predicates
		// end up keyless and are broadcast by internal/shard.
		if e.IsBand() {
			continue
		}
		union(Attr{Source: e.Left, Col: e.LCol}, Attr{Source: e.Right, Col: e.RCol})
	}
	groups := make(map[Attr][]Attr)
	for a := range parent {
		r := find(a)
		groups[r] = append(groups[r], a)
	}
	var out [][]Attr
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		sortAttrs(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return attrLess(out[i][0], out[j][0]) })
	return out
}

// sortAttrs orders attributes by (Source, Col).
func sortAttrs(as []Attr) {
	sort.Slice(as, func(i, j int) bool { return attrLess(as[i], as[j]) })
}

func attrLess(a, b Attr) bool { return a.Compare(b) < 0 }

// Compare orders attributes by (Source, Col): negative, zero or positive as
// a sorts before, with or after b.
func (a Attr) Compare(b Attr) int {
	if a.Source != b.Source {
		return int(a.Source) - int(b.Source)
	}
	return a.Col - b.Col
}

// EvalPair evaluates every predicate linking composites a and b. Predicates
// with both endpoints inside a (or inside b) are assumed already checked
// upstream and skipped; n reports how many predicates were actually
// evaluated so callers can charge comparison costs precisely.
func (c Conj) EvalPair(a, b *stream.Composite) (ok bool, n int) {
	for _, e := range c {
		if !e.Across(a.Sources, b.Sources) {
			continue
		}
		n++
		if !e.Holds(a, b) {
			return false, n
		}
	}
	return true, n
}

// JoinAttrs returns the set of (source, column) pairs of the given source
// that appear in predicates crossing to the opposite set. These columns form
// the MNS key signature used for same-signature generalization (the a2
// example of Sec. IV-B).
func (c Conj) JoinAttrs(src stream.SourceID, opposite stream.SourceSet) []Attr {
	seen := map[Attr]bool{}
	var out []Attr
	for _, e := range c {
		if e.Left == src && opposite.Has(e.Right) {
			a := Attr{Source: src, Col: e.LCol}
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
		if e.Right == src && opposite.Has(e.Left) {
			a := Attr{Source: src, Col: e.RCol}
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// WithTol returns a copy of the conjunction with every predicate's band
// tolerance set to tol — the hostile-workload transform that turns an
// equi-join query (Clique, Chain) into its band counterpart. tol = 0
// returns an equivalent equi-join copy.
func (c Conj) WithTol(tol stream.Value) Conj {
	out := make(Conj, len(c))
	copy(out, c)
	for i := range out {
		out[i].Tol = tol
	}
	return out
}

func (c Conj) String() string {
	parts := make([]string, len(c))
	for i, e := range c {
		parts[i] = e.String()
	}
	return strings.Join(parts, " AND ")
}

// Attr identifies one column of one source.
type Attr struct {
	Source stream.SourceID
	Col    int
}

func (a Attr) String() string { return fmt.Sprintf("s%d.c%d", a.Source, a.Col) }

// CmpOp is a comparison operator for selection predicates.
type CmpOp int

// Supported comparison operators.
const (
	LT CmpOp = iota
	LE
	EQ
	NE
	GE
	GT
)

func (o CmpOp) String() string {
	switch o {
	case LT:
		return "<"
	case LE:
		return "<="
	case EQ:
		return "="
	case NE:
		return "!="
	case GE:
		return ">="
	case GT:
		return ">"
	}
	return "?"
}

// Eval applies the operator to two values.
func (o CmpOp) Eval(a, b stream.Value) bool {
	switch o {
	case LT:
		return a < b
	case LE:
		return a <= b
	case EQ:
		return a == b
	case NE:
		return a != b
	case GE:
		return a >= b
	case GT:
		return a > b
	}
	return false
}

// Selection is a single-source filter such as A.x > 200 (Fig. 9a).
type Selection struct {
	Source stream.SourceID
	Col    int
	Op     CmpOp
	Const  stream.Value
}

// Holds evaluates the filter on a composite; vacuously true when the source
// is absent.
func (s Selection) Holds(c *stream.Composite) bool {
	t := c.Comp(s.Source)
	if t == nil {
		return true
	}
	return s.Op.Eval(t.Vals[s.Col], s.Const)
}

func (s Selection) String() string {
	return fmt.Sprintf("s%d.c%d %s %d", s.Source, s.Col, s.Op, s.Const)
}

// Clique builds the paper's evaluation predicate (Sec. VI): one equi-join
// condition between every pair of the catalog's N sources, each on a
// distinct column. Every source has N-1 columns, one per partner; the column
// a source uses for partner j is the rank of j among the source's other
// partners. For N=4 this yields the paper's example
// (A.x1=B.x1) ∧ (A.x2=C.x2) ∧ ... ∧ (C.x6=D.x6).
func Clique(n int) (cat *stream.Catalog, conj Conj) {
	cat = stream.NewCatalog()
	for i := 0; i < n; i++ {
		cols := make([]string, 0, n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			cols = append(cols, fmt.Sprintf("x_%c", 'A'+j))
		}
		name := string(rune('A' + i))
		cat.MustAdd(stream.NewSchema(name, cols...))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			conj = append(conj, Eq{
				Left:  stream.SourceID(i),
				LCol:  colFor(i, j),
				Right: stream.SourceID(j),
				RCol:  colFor(j, i),
			})
		}
	}
	return cat, conj
}

// Chain builds the fully partitionable counterpart of Clique: N
// single-column sources joined pairwise on the shared column
// (A.x = B.x ∧ B.x = C.x ∧ ...). The transitive closure of the conjunction
// is a single class covering every source, so sharded execution
// (internal/shard) routes all N streams by that column and no source needs
// broadcasting — the best case of the DESIGN.md §5 scaling analysis, as
// Clique (pairwise-distinct columns, two-source classes) is the worst.
func Chain(n int) (cat *stream.Catalog, conj Conj) {
	if n < 2 {
		panic("predicate: chain needs >= 2 sources")
	}
	cat = stream.NewCatalog()
	for i := 0; i < n; i++ {
		cat.MustAdd(stream.NewSchema(string(rune('A'+i)), "x"))
	}
	for i := 0; i+1 < n; i++ {
		conj = append(conj, Eq{Left: stream.SourceID(i), Right: stream.SourceID(i + 1)})
	}
	return cat, conj
}

// colFor returns the column index source i uses for partner j under the
// clique layout above.
func colFor(i, j int) int {
	if j < i {
		return j
	}
	return j - 1
}
