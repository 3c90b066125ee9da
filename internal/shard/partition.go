package shard

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/state"
	"repro/internal/stream"
)

// Broadcast is the Route result for tuples that must go to every shard:
// their source has no attribute in the partition key class (or the key
// component is missing from the tuple), so any shard's results may need
// them.
const Broadcast = -1

// Key is a plan-wide compatible partitioning key: one column per routed
// source, all transitively equated by the plan's crossing predicates, so
// every final result's routed components carry equal key values and land
// in the same shard.
type Key struct {
	// Cols maps each routed source to the column whose value selects its
	// shard. Sources absent from the map broadcast to all shards.
	Cols map[stream.SourceID]int
	// Class is the underlying attribute equivalence class the key was
	// chosen from, in (Source, Col) order — kept for display and tests.
	Class []predicate.Attr
}

// DeriveKey computes the partition key for a plan: it derives each
// operator's aligned equi-key columns from the predicates crossing its two
// sides (predicate.Conj.EquiKeyCols, exactly the pairs the §3 hash index
// is built on) and intersects them up the tree by uniting each aligned
// pair into one equivalence class. Any class is sound (its attributes are
// equal in every final result), so the class covering the most sources is
// chosen — fewer broadcast sources, better scaling — with ties broken by
// the smallest (Source, Col) attribute. ok is false when no predicate
// crosses any join (a pure cross product): no key exists and the caller
// must fall back to a single shard, mirroring the §3 scan fallback.
func DeriveKey(preds predicate.Conj, shape *plan.Node) (Key, bool) {
	var pairs predicate.Conj
	collectPairs(preds, shape, &pairs)
	classes := pairs.EquiClosure()
	if len(classes) == 0 {
		return Key{}, false
	}
	best := classes[0]
	bestCover := coverage(best)
	for _, cl := range classes[1:] {
		if c := coverage(cl); c > bestCover {
			best, bestCover = cl, c
		}
	}
	k := Key{Cols: make(map[stream.SourceID]int, bestCover), Class: best}
	for _, a := range best {
		// A class can hold two attributes of one source (equated through a
		// third); either column routes identically on final results, so the
		// smallest wins — Class is already in (Source, Col) order.
		if _, dup := k.Cols[a.Source]; !dup {
			k.Cols[a.Source] = a.Col
		}
	}
	return k, true
}

// collectPairs walks the shape and appends, per internal node, one Eq per
// aligned equi-key column pair of that operator. The union of these pairs
// over the whole tree is what EquiClosure intersects into classes.
func collectPairs(preds predicate.Conj, n *plan.Node, out *predicate.Conj) {
	if n.IsLeaf() {
		return
	}
	collectPairs(preds, n.Left, out)
	collectPairs(preds, n.Right, out)
	lk, rk, ok := preds.EquiKeyCols(n.Left.Sources(), n.Right.Sources())
	if !ok {
		return
	}
	for i := range lk {
		*out = append(*out, predicate.Eq{
			Left: lk[i].Source, LCol: lk[i].Col,
			Right: rk[i].Source, RCol: rk[i].Col,
		})
	}
}

// coverage counts the distinct sources a class keys.
func coverage(class []predicate.Attr) int {
	var set stream.SourceSet
	for _, a := range class {
		set = set.Add(a.Source)
	}
	return set.Count()
}

// Route returns the shard in [0, shards) for a tuple, or Broadcast when
// the tuple's source is unrouted or the key component is missing. Routing
// is a pure function of the key value (state.FoldValue, the same FNV-1a
// fold the §3 state index hashes with), so the same value always lands on
// the same shard — the property shard-local completeness rests on.
func (k Key) Route(t *stream.Tuple, shards int) int {
	col, ok := k.Cols[t.Source]
	if !ok || col >= len(t.Vals) {
		return Broadcast
	}
	return int(state.FoldValue(state.FNVOffset, t.Vals[col]) % uint64(shards))
}

func (k Key) String() string {
	ids := make([]stream.SourceID, 0, len(k.Cols))
	for id := range k.Cols {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("s%d.c%d", id, k.Cols[id])
	}
	return "[" + strings.Join(parts, " ") + "]"
}
