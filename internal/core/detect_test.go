package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/predicate"
	"repro/internal/state"
	"repro/internal/stream"
)

// detectQuery is the join the by-value detection tests run on: sources 0, 1, 2
// on the left and 3, 4 on the right, every predicate crossing. The left atoms
// are 0 (two predicates, one to each right source), 1 and 2 (one each); the
// right atoms are 3 (two predicates) and 4 (two). band > 0 turns the
// predicate numbered band-1 into a band predicate of half-width 1, which
// takes its atom on either side out of the lattice.
func detectQuery(band int) predicate.Conj {
	conj := predicate.Conj{
		{Left: 0, LCol: 0, Right: 3, RCol: 0},
		{Left: 0, LCol: 1, Right: 4, RCol: 0},
		{Left: 1, LCol: 0, Right: 3, RCol: 1},
		{Left: 2, LCol: 0, Right: 4, RCol: 1},
	}
	if band > 0 {
		conj[(band-1)%len(conj)].Tol = 1
	}
	return conj
}

// fnvTwins are two values state.FoldValue hashes alike from the FNV offset
// (found by a cycle search over the fold): a stored partner holding one is a
// candidate of a lookup for the other without carrying it — the hash
// collision the verification in identifyMNS exists for.
var fnvTwins = [2]stream.Value{-3903196117755569215, 7514802344287042344}

// randomComposite draws a composite over all of srcs, as every composite a
// port receives is: values from a domain of four plus the FNV twins,
// timestamps within 2·w.
func randomComposite(rng *rand.Rand, srcs []stream.SourceID, w stream.Time, id *uint64) *stream.Composite {
	var c *stream.Composite
	for _, src := range srcs {
		*id++
		t := &stream.Tuple{ID: *id, Source: src, TS: stream.Time(rng.Int63n(int64(2 * w))), Vals: make([]stream.Value, 2)}
		for i := range t.Vals {
			if v := rng.Intn(12); v < 10 {
				t.Vals[i] = stream.Value(v % 4)
			} else {
				t.Vals[i] = fnvTwins[v-10]
			}
		}
		if one := stream.NewComposite(5, t); c == nil {
			c = one
		} else {
			c = stream.Join(c, one)
		}
	}
	return c
}

// checkDetectByValue fills one side's state with random partners — inside
// the input's window span and outside it, as a state holds them in exact
// mode between a recovery and the purge — draws an input for the other
// side, and requires identifyMNS to return the Ω that lattice.BruteMNS
// derives from the masks of a full pairValid-gated scan, minus the nodes
// buildMNS refuses (an atom with a band predicate); omega must materialize
// exactly those. With level1 set the lattice is off and Ω is the atoms no
// admitted partner matches.
func checkDetectByValue(t *testing.T, seed int64, band, partners int, level1 bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const w = 100 * stream.Second
	left, right := []stream.SourceID{0, 1, 2}, []stream.SourceID{3, 4}
	nextID := uint64(0)
	j := NewJoin(Config{
		Name: "Op", NumSources: 5, Window: w, Preds: detectQuery(band), Mode: JIT(),
		Account: &metrics.Account{}, NextMNS: func() uint64 { nextID++; return nextID },
		LeftSources: stream.SourceSet(0).Add(0).Add(1).Add(2), RightSources: stream.SourceSet(0).Add(3).Add(4),
	})
	if level1 {
		j.ForceLevel1()
	}
	j.now = 2 * w
	s, o, own, opp := j.in[operator.Left], j.in[operator.Right], left, right
	if rng.Intn(2) == 0 {
		s, o, own, opp = o, s, right, left
	}
	var tid uint64
	for i := 0; i < partners; i++ {
		o.st.Reinsert(state.Entry{C: randomComposite(rng, opp, w, &tid), Seq: o.seq.Next()})
	}
	// Two detections on one operator: the second finds the indexes built and
	// the scratch used.
	for round := 0; round < 2; round++ {
		c := randomComposite(rng, own, w, &tid)
		m := len(s.atoms)
		refused := uint32(0)
		for k := range s.atoms {
			if slices.ContainsFunc(s.atomPreds[k], predicate.Eq.IsBand) {
				refused |= 1 << uint(k)
			}
		}
		var observed []uint32
		o.st.Scan(func(e state.Entry) bool {
			if !j.pairValid(c, e.C) {
				return true
			}
			mask := uint32(0)
			for k := range s.atoms {
				if ok, _ := s.atomPreds[k].EvalPair(c, e.C); ok {
					mask |= 1 << uint(k)
				}
			}
			observed = append(observed, mask)
			return true
		})
		var want []uint32
		if level1 {
			ever := uint32(0)
			for _, mask := range observed {
				ever |= mask
			}
			for k := 0; k < m; k++ {
				if ever&(1<<uint(k)) == 0 {
					want = append(want, 1<<uint(k))
				}
			}
		} else {
			want = lattice.BruteMNS(m, observed)
		}
		kept := func(masks []uint32) []uint32 {
			return slices.DeleteFunc(slices.Clone(masks), func(mask uint32) bool { return mask&refused != 0 })
		}
		before := j.ctr
		got := j.identifyMNS(c, s, o)
		if !slices.Equal(kept(got), kept(want)) {
			t.Fatalf("seed %d band %d level1 %t round %d: input %v against %d partners (masks %b, refused %b): by value Ω = %b, scan Ω = %b",
				seed, band, level1, round, c, o.st.Len(), observed, refused, kept(got), kept(want))
		}
		if spent := j.ctr.Sub(before); spent.LatticeNodes == 0 || (refused != 1<<uint(m)-1 && spent.Comparisons == 0) {
			t.Fatalf("seed %d: detection charged cmp=%d lattice=%d", seed, spent.Comparisons, spent.LatticeNodes)
		}
		if o.st.Empty() {
			continue // omega reports Ø instead
		}
		if built := j.omega(c, s, o); len(built) != len(kept(want)) {
			t.Fatalf("seed %d band %d level1 %t round %d: omega built %d MNSs of Ω = %b", seed, band, level1, round, len(built), kept(want))
		}
	}
}

// TestDetectByValueMatchesScan is the property behind DESIGN.md §3's
// "detection by value": over random states and inputs the lookups find the Ω
// a scan of every partner would.
func TestDetectByValueMatchesScan(t *testing.T) {
	if a, b := state.FoldValue(state.FNVOffset, fnvTwins[0]), state.FoldValue(state.FNVOffset, fnvTwins[1]); a != b {
		t.Fatalf("fnvTwins hash to %d and %d: no collision is being tested", a, b)
	}
	seeds := int64(3000)
	if testing.Short() {
		seeds = 300
	}
	for seed := int64(1); seed <= seeds; seed++ {
		checkDetectByValue(t, seed, int(seed%6), int(seed%23), seed%7 == 0)
	}
}

// FuzzDetectByValue lets the fuzzer pick the stream of random draws, the band
// predicate, the state size and the fallback.
func FuzzDetectByValue(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(12), false)
	f.Add(int64(2), uint8(3), uint8(30), false)
	f.Add(int64(3), uint8(1), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, band, partners uint8, level1 bool) {
		checkDetectByValue(t, seed, int(band%5), int(partners%64), level1)
	})
}

// TestRejectionVoidsOnlyWhatItMatches: a candidate rejected by pairValid
// voids the claim of an MNS only when the lookup of every atom of the MNS
// found it — tuple 7 was found under atoms 0 and 1, tuple 9 under atom 1
// alone — and every other MNS of the same Ω still claims.
func TestRejectionVoidsOnlyWhatItMatches(t *testing.T) {
	s := &side{rejected: []rejection{{0, 7}, {1, 9}, {1, 7}}}
	s.foldRejected()
	for _, tc := range []struct {
		mask uint32
		want bool
	}{
		{0, true},           // Ø
		{1 << 0, false},     // 7
		{1 << 1, false},     // 7 and 9
		{1 << 2, true},      // nobody
		{3, false},          // 7, under both atoms
		{1<<1 | 1<<2, true}, // 7 and 9 were not found under atom 2
		{1<<0 | 1<<2, true},
	} {
		if got := s.unrejected(tc.mask); got != tc.want {
			t.Errorf("mask %b: unrejected = %t, want %t", tc.mask, got, tc.want)
		}
	}
}
