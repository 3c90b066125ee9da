package main

import (
	"sort"

	"repro/internal/predicate"
	"repro/internal/stream"
)

// The oracle is the benchmark's reference computation: a progressive,
// window-pruned nested-loop join written straight from the sliding-window
// join semantics (Golab & Özsu, PAPERS.md) — a tuple is alive during
// [TS, TS+w), and a result exists for every combination of one alive tuple
// per source that satisfies every predicate. It imports only the data model
// (stream) and the query description (predicate), nothing from core, engine,
// state or plan, so a bug in the engine cannot hide in the checker.

// ids identifies one final result by the tuple ID of each source's
// constituent (0 where the query has fewer sources).
type ids [numSources]uint64

func (a ids) less(b ids) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// newest returns the largest constituent ID. Generated IDs count arrivals
// from 1, so the newest constituent of a result is frame newest()-1.
func (a ids) newest() uint64 {
	m := a[0]
	for _, v := range a[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// oracle joins the whole in-order arrival log and returns every final
// result, grouped by completion: the results completed by arrival i sit
// together, after those of arrival i-1. The results of a prefix of the log
// are therefore a prefix of the returned slice (see resultsOfPrefix).
func oracle(cat *stream.Catalog, conj predicate.Conj, w stream.Time, arrivals []*stream.Tuple) []ids {
	n := cat.NumSources()
	live := make([][]*stream.Tuple, n) // per source, arrival order, pruned to the window
	pick := make([]*stream.Tuple, n)
	var out []ids
	var t *stream.Tuple // the arrival being joined
	var extend func(s int)
	extend = func(s int) {
		if s == n {
			var r ids
			for i, p := range pick {
				r[i] = p.ID
			}
			out = append(out, r)
			return
		}
		if stream.SourceID(s) == t.Source {
			extend(s + 1)
			return
		}
		for _, u := range live[s] {
			pick[s] = u
			if holdsSoFar(conj, pick, s) {
				extend(s + 1)
			}
		}
		pick[s] = nil
	}
	for _, t = range arrivals {
		// t is the newest tuple so far: u can still join it iff u is alive
		// at t.TS, i.e. t.TS < u.TS+w. Everything else can never join t or
		// any later arrival. Survivors are pairwise within w of each other,
		// because all of them lie in (t.TS-w, t.TS].
		for s := range live {
			k := 0
			for k < len(live[s]) && live[s][k].TS+w <= t.TS {
				k++
			}
			live[s] = live[s][k:]
		}
		for s := range pick {
			pick[s] = nil
		}
		pick[t.Source] = t
		extend(0)
		live[t.Source] = append(live[t.Source], t)
	}
	return out
}

// holdsSoFar checks every predicate that touches source s and whose other
// endpoint is already picked. Each predicate is thus evaluated exactly once
// per candidate combination, when its later endpoint is chosen.
func holdsSoFar(conj predicate.Conj, pick []*stream.Tuple, s int) bool {
	for _, e := range conj {
		l, r := pick[e.Left], pick[e.Right]
		if l == nil || r == nil || (int(e.Left) != s && int(e.Right) != s) {
			continue
		}
		d := l.Vals[e.LCol] - r.Vals[e.RCol]
		if d < 0 {
			d = -d
		}
		if d > e.Tol {
			return false
		}
	}
	return true
}

// resultsOfPrefix returns the oracle results of the first n arrivals: those
// whose newest constituent is among them.
func resultsOfPrefix(all []ids, n int) []ids {
	k := sort.Search(len(all), func(i int) bool { return all[i].newest() > uint64(n) })
	return all[:k]
}

// diff compares a delivered result multiset with the expected one and counts
// what is missing, what was never expected, and what was delivered more than
// once. delivered is sorted in place; expected is copied first, because the
// oracle's completion order is what resultsOfPrefix searches.
func diff(expected, delivered []ids) (missing, spurious, duplicate int) {
	expected = append([]ids(nil), expected...)
	sort.Slice(expected, func(i, j int) bool { return expected[i].less(expected[j]) })
	sort.Slice(delivered, func(i, j int) bool { return delivered[i].less(delivered[j]) })
	i, j := 0, 0
	for i < len(expected) && j < len(delivered) {
		switch {
		case expected[i] == delivered[j]:
			i++
			j++
			for j < len(delivered) && delivered[j] == delivered[j-1] {
				duplicate++
				j++
			}
		case expected[i].less(delivered[j]):
			missing++
			i++
		default:
			spurious++
			j++
		}
	}
	missing += len(expected) - i
	spurious += len(delivered) - j
	return missing, spurious, duplicate
}
