package engine

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// cliqueJIT builds the plan and arrival iterator of the benchmark's
// clique_jit workload (bench/jitperf/workload.go): the N=4 bushy clique
// under a 60 s window, λ=2.5 per source, dmax=16, full JIT, linear-scan
// states unless indexed. The iterator yields the first n arrivals of the
// seed's stream.
func cliqueJIT(seed int64, n int, indexed bool) (*plan.Built, func() (*stream.Tuple, bool)) {
	cat, conj := predicate.Clique(4)
	b := plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{
		Window: stream.Minute, Mode: core.JIT(), NoStateIndex: !indexed,
	})
	gen := source.Stream(cat, source.UniformConfig(4, 2.5, 16, 1<<40, seed))
	return b, func() (*stream.Tuple, bool) {
		if n == 0 {
			return nil, false
		}
		n--
		return gen()
	}
}

// TestJITAllocBudget is the allocation gate of ROADMAP item 1: the first
// 1 200 arrivals of clique_jit (two full windows), exact and drained, must
// stay inside a per-arrival budget of heap bytes and objects. Both figures
// repeat to within a few bytes from run to run (and under -race), so the
// budget sits just above the values measured when it was last set — 14 626 B
// and 168.7 mallocs at PR 18, against 57 600 B and 841 at PR 14; 15 341 B and
// 171.8 at PR 24, whose by-value detection indexes each root state once per
// atom opposite; 10 491 B and 138.1 since a join result no longer copies its
// inputs' mark ids and an origin entry no longer keeps a set of the tuples it
// enrolled; 7 965 B and 122.2 since mark ids are a sorted list rather than a
// map, multi-atom MNSs share their predicate lists and side signatures share
// their MNS's storage; 7 049 B and 94.9 while live states kept per-key map
// buckets beside their arrival-order slice; 6 600 B and 85.6 since every
// window store, graveyards included, is one slice sorted by (key hash, Seq)
// — and the test prints what it measures: the next allocation change
// tightens the budget from the log. A per-pair allocation anywhere on the
// probe path costs thousands of bytes per arrival here and trips it.
func TestJITAllocBudget(t *testing.T) {
	const (
		arrivals   = 1200
		maxBytes   = 7260
		maxMallocs = 94
	)
	b, next := cliqueJIT(1, arrivals, false)
	eng := NewWithOptions(b, Options{Drain: true})
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := eng.RunStream(next)
	runtime.ReadMemStats(&m1)
	if res.Arrivals != arrivals || res.Counters.Suspended == 0 {
		t.Fatalf("degenerate run: %d arrivals, %d suspensions", res.Arrivals, res.Counters.Suspended)
	}
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / arrivals
	mallocs := float64(m1.Mallocs-m0.Mallocs) / arrivals
	t.Logf("clique_jit, %d arrivals: %.0f B/arrival (budget %d), %.1f mallocs/arrival (budget %d)",
		arrivals, bytes, maxBytes, mallocs, maxMallocs)
	if bytes > maxBytes {
		t.Errorf("allocated %.0f B/arrival, budget %d", bytes, maxBytes)
	}
	if mallocs > maxMallocs {
		t.Errorf("%.1f mallocs/arrival, budget %d", mallocs, maxMallocs)
	}
}

// TestJITDetectionBudget is the gate on the deterministic metric, beside the
// allocation gate and on the same stream: the 5 663 arrivals jitperf's
// clique_jit feeds at seed 1 (9.4 minutes), exact and drained. What JIT
// decides — the MNSs it detects, the feedback it sends, what it suspends,
// resumes, suppresses and builds — is pinned exactly: a detection change may
// find the same Ω more cheaply, never a different Ω. What finding it costs,
// predicates evaluated plus lattice nodes visited per arrival, is bounded a
// few percent above the figure measured when the bound was last set —
// 12 858.7 since a late input probes only its own key's run of the
// graveyard (which cut catch-up joins from 3 606 456 to 58 358; 11 657.5
// and 58 026 since a resumption asks the graveyard only for pending
// partners of its own key, and an MNS claims unless a candidate outside
// the input's window span matches it), against
// 13 526.1 with Identify_MNS by value, 16 015.8 with signature matches by
// lookup, 23 190.9 with demand-driven Identify_MNS and 65 238.2 before
// that — and printed, so the next detection PR tightens the bound from the
// log. The two leaf operators detect nothing: what they compare is the
// producer side of the protocol — diversion, Type I suspension, and the
// Type II mark machinery, every signature attribute of which is charged
// (core's TestSignatureMatchesAreCharged) — plus their own probes. It was
// 41.9 M comparisons while each signature was tested against every origin
// and every stored tuple, 1 303 907 with both found by value, 1 302 479
// with the graveyard keyed, and is 1 302 147 with pending partners of
// another key left unasked.
//
// The last cell is the same stream's first five minutes over hash-indexed
// states, where the probe is a bucket walk and detection is all the root
// operator compares: 888 795 with Identify_MNS by value, 39.1 M while it
// re-scanned the opposite state for every unmatched input.
func TestJITDetectionBudget(t *testing.T) {
	const (
		arrivals     = 5663
		maxDetection = 13240
		maxLeafCmp   = 1350000

		indexedArrivals   = 2959
		maxIndexedRootCmp = 920000
	)
	b, next := cliqueJIT(1, arrivals, false)
	res := NewWithOptions(b, Options{Drain: true}).RunStream(next)
	c := res.Counters
	for _, pin := range []struct {
		name      string
		got, want uint64
	}{
		{"mns", c.MNSDetected, 47492}, {"fb", c.Feedbacks, 48962},
		{"susp", c.Suspended, 1253}, {"res", c.Resumed, 1253},
		{"catchup", c.CatchUpJoins, 58026}, {"suppressed", c.SuppressedPairs, 49035},
		{"results", c.Results, 51458}, {"ins", c.Inserted, 56738}, {"purge", c.Purged, 55930},
	} {
		if pin.got != pin.want {
			t.Errorf("%s=%d, pinned at %d: detection changed what JIT decides, not only what deciding costs", pin.name, pin.got, pin.want)
		}
	}
	detection := float64(c.Comparisons+c.LatticeNodes) / arrivals
	t.Logf("clique_jit, %d arrivals: %.1f comparisons+lattice nodes per arrival (budget %d), %.1f CostUnits per arrival",
		arrivals, detection, maxDetection, float64(res.CostUnits)/arrivals)
	if detection > maxDetection {
		t.Errorf("%.1f comparisons+lattice nodes per arrival, budget %d", detection, maxDetection)
	}
	leafCmp := uint64(0)
	for _, j := range b.Joins[:len(b.Joins)-1] {
		leafCmp += j.Counters().Comparisons
	}
	t.Logf("leaf operators: %d comparisons (budget %d)", leafCmp, maxLeafCmp)
	if leafCmp > maxLeafCmp {
		t.Errorf("the leaf operators compared %d times, budget %d", leafCmp, maxLeafCmp)
	}

	b, next = cliqueJIT(1, indexedArrivals, true)
	if res := NewWithOptions(b, Options{Drain: true}).RunStream(next); res.Counters.MNSDetected != 23311 {
		t.Errorf("indexed: mns=%d, pinned at 23311, what the scan detects on these arrivals", res.Counters.MNSDetected)
	}
	rootCmp := b.Joins[len(b.Joins)-1].Counters().Comparisons
	t.Logf("indexed, %d arrivals: the root operator compared %d times (budget %d)", indexedArrivals, rootCmp, maxIndexedRootCmp)
	if rootCmp > maxIndexedRootCmp {
		t.Errorf("indexed: the root operator compared %d times, budget %d", rootCmp, maxIndexedRootCmp)
	}
}
