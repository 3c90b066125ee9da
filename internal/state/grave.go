package state

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/stream"
)

// Grave is one join side's graveyard (DESIGN.md §4): the entries retired
// from the side's state, and expired recoveries that came to rest there,
// kept for the late inputs of the opposite side that may still pair with
// them. It is one slice sorted by (key hash, Seq), keyed on the operator's
// crossing equi-key whether or not the live states are indexed, so a late
// input visits only the run of entries sharing its key values (plus hash
// collisions, which the caller's predicate evaluation rejects). A join with
// no crossing equi predicate has an empty key: every entry then hashes
// alike and forms one run.
type Grave struct {
	key   Key // the stored side's half of the aligned equi-key
	probe Key // the probing side's half
	acct  *metrics.Account
	ents  []graveEntry // ascending (h, Seq)
	// min is the smallest MinTS retained, so Expire is free when nothing is
	// due. Only Expire removes entries, and it rebuilds the cache as it
	// compacts, so the cache is never stale.
	min MinCache
}

type graveEntry struct {
	h uint64
	Entry
}

// NewGrave creates a graveyard whose entries are hashed at key and probed by
// composites hashed at probe — the two aligned halves of
// predicate.Conj.EquiKeyCols — charging retained bytes to acct's
// metrics.MemGraveyard row.
func NewGrave(key, probe Key, acct *metrics.Account) *Grave {
	return &Grave{key: key, probe: probe, acct: acct}
}

// hash is Key.Hash for a composite every key source of which is present, as
// in every composite a wired operator receives on a port: an input carries
// all of its port's sources.
func hash(k Key, c *stream.Composite) uint64 {
	h, ok := k.Hash(c)
	if !ok {
		panic(fmt.Sprintf("state: graveyard composite %v lacks a key source", c.Sources))
	}
	return h
}

// Len returns the number of retained entries.
func (g *Grave) Len() int { return len(g.ents) }

// Empty reports whether nothing is retained.
func (g *Grave) Empty() bool { return len(g.ents) == 0 }

// search returns the index of the first entry at or after (h, seq).
func (g *Grave) search(h, seq uint64) int {
	i, _ := slices.BinarySearchFunc(g.ents, graveEntry{h: h, Entry: Entry{Seq: seq}}, cmpGrave)
	return i
}

func cmpGrave(a, b graveEntry) int {
	if c := cmp.Compare(a.h, b.h); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// Retire files entries, in any order, at their (key hash, Seq) places.
func (g *Grave) Retire(es ...Entry) {
	for _, e := range es {
		h := hash(g.key, e.C)
		g.ents = slices.Insert(g.ents, g.search(h, e.Seq), graveEntry{h: h, Entry: e})
		g.min.Add(e.C.MinTS)
		g.acct.Alloc(metrics.MemGraveyard, e.C.DeepSizeBytes())
	}
}

// Walk visits, in ascending sequence order and until visit returns false,
// the entries with sequence strictly greater than after whose key hashes as
// c's probe key does. It finds its place again at every step, so visit may
// retire entries re-entrantly: the walk resumes after the last sequence
// visited.
func (g *Grave) Walk(c *stream.Composite, after uint64, visit func(Entry) bool) {
	h := hash(g.probe, c)
	for {
		i := g.search(h, after+1)
		if i == len(g.ents) || g.ents[i].h != h {
			return
		}
		e := g.ents[i].Entry
		if !visit(e) {
			return
		}
		after = e.Seq
	}
}

// Retains reports whether e, an entry of the stored side, is retained.
func (g *Grave) Retains(e Entry) bool {
	h := hash(g.key, e.C)
	i := g.search(h, e.Seq)
	return i < len(g.ents) && g.ents[i].h == h && g.ents[i].Seq == e.Seq
}

// Expire drops, in one compacting pass, every entry whose oldest component
// expired by floor: MinTS + window <= floor. The cached minimum spares the
// pass when nothing is due.
func (g *Grave) Expire(floor, window stream.Time) {
	if ts, ok := g.min.Get(nil); !ok || ts+window > floor {
		return
	}
	kept := g.ents[:0]
	g.min = MinCache{}
	for _, e := range g.ents {
		if e.C.MinTS+window <= floor {
			g.acct.Free(metrics.MemGraveyard, e.C.DeepSizeBytes())
			continue
		}
		g.min.Add(e.C.MinTS)
		kept = append(kept, e)
	}
	clear(g.ents[len(kept):])
	g.ents = kept
}
