// Package source generates the synthetic workloads of Sec. VI: for each of
// N streaming sources, tuples arrive with exponential (Poisson-process)
// inter-arrival times at average rate λ and carry uniformly distributed
// integer columns in [1..dmax]. Per-source rate and domain overrides support
// the low-selectivity left-deep setup (stream D fed from [1..10²·dmax]).
// All randomness is seeded, making every run reproducible.
//
// Beyond the paper's friendly traffic, the package provides composable
// hostile-stream mutators (DESIGN.md §8): Zipf-skewed value domains
// (SourceSpec.Zipf), burst regime-switching rate schedules
// (SourceSpec.BurstFactor/BurstPeriod), and bounded out-of-order delivery
// (Config.Disorder, Disordered). Mutators preserve the lazy-Stream ≡
// materialized-Generate equivalence.
package source

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/minheap"
	"repro/internal/stream"
)

// SourceSpec configures one stream.
type SourceSpec struct {
	// Rate is the average arrival rate in tuples per second (λ).
	Rate float64
	// DMax is the inclusive upper bound of the uniform value domain.
	DMax int64
	// DMaxByCol optionally overrides DMax per column index.
	DMaxByCol map[int]int64
	// Zipf, when > 1, skews column values: instead of uniform draws over
	// [1..dmax], values follow a Zipf distribution with exponent Zipf over
	// the same domain (rank 1 most frequent). Go's rand.Zipf requires the
	// exponent to exceed 1, so 0 < Zipf <= 1 is rejected at construction.
	// 0 keeps the paper's uniform domains.
	Zipf float64
	// BurstFactor, when > 1, switches the source between a high-rate regime
	// (Rate*BurstFactor during the first half of each cycle) and the base
	// Rate (second half) — a deterministic regime-switching schedule that
	// stresses deadline scheduling and partition balance. 0 or 1 keeps the
	// stationary Poisson process.
	BurstFactor float64
	// BurstPeriod is the regime cycle length; required when BurstFactor > 1.
	BurstPeriod stream.Time
}

// Config describes a whole workload.
type Config struct {
	// Horizon is the application-time length of the run.
	Horizon stream.Time
	// Seed drives all randomness.
	Seed int64
	// Specs holds one entry per catalog source, indexed by SourceID.
	Specs []SourceSpec
	// Disorder, when > 0, perturbs delivery order: each tuple is delayed by
	// a uniform jitter in [0, Disorder] application-time units, so tuples
	// can arrive up to Disorder late relative to timestamp order. IDs are
	// assigned in timestamp order BEFORE perturbation, so the disordered
	// sequence is a permutation of the in-order one and multiset checks
	// line up element-wise. 0 keeps the paper's in-order delivery.
	Disorder stream.Time
}

// UniformConfig builds a Config where every source shares rate and domain.
func UniformConfig(n int, rate float64, dmax int64, horizon stream.Time, seed int64) Config {
	specs := make([]SourceSpec, n)
	for i := range specs {
		specs[i] = SourceSpec{Rate: rate, DMax: dmax}
	}
	return Config{Horizon: horizon, Seed: seed, Specs: specs}
}

// gen lazily produces one source's Poisson arrival sequence. Its draws from
// the per-source RNG happen in exactly the order Generate historically made
// them (gap, then column values), so lazy and materialized generation yield
// byte-identical tuples.
type gen struct {
	id      stream.SourceID
	spec    SourceSpec
	schema  *stream.Schema
	rng     *rand.Rand
	t       stream.Time
	horizon stream.Time
	// zipfs caches one Zipf variate generator per distinct domain size so
	// repeated draws reuse the precomputed rejection constants. All draws
	// still come from the single per-source rng, keeping the draw sequence
	// deterministic.
	zipfs map[int64]*rand.Zipf
}

func newGen(cat *stream.Catalog, cfg Config, id stream.SourceID) *gen {
	g := &gen{
		id:      id,
		spec:    cfg.Specs[id],
		schema:  cat.Source(id),
		rng:     rand.New(rand.NewSource(cfg.Seed + int64(id)*7919)),
		horizon: cfg.Horizon,
	}
	if z := g.spec.Zipf; z != 0 {
		if z <= 1 {
			panic(fmt.Sprintf("source: Zipf exponent must be > 1, got %v", z))
		}
		g.zipfs = make(map[int64]*rand.Zipf)
	}
	return g
}

// rate returns the effective arrival rate at application time t under the
// burst schedule: Rate*BurstFactor during the first half of each BurstPeriod
// cycle, the base Rate during the second half.
func (g *gen) rate(t stream.Time) float64 {
	f, p := g.spec.BurstFactor, g.spec.BurstPeriod
	if f <= 1 || p <= 0 {
		return g.spec.Rate
	}
	if t%p < p/2 {
		return g.spec.Rate * f
	}
	return g.spec.Rate
}

// draw produces one column value over domain [1..d] — uniform by default,
// Zipf-skewed (rank 1 most frequent) when the spec requests it.
func (g *gen) draw(d int64) stream.Value {
	if g.zipfs == nil {
		return stream.Value(g.rng.Int63n(d) + 1)
	}
	z, ok := g.zipfs[d]
	if !ok {
		z = rand.NewZipf(g.rng, g.spec.Zipf, 1, uint64(d-1))
		g.zipfs[d] = z
	}
	return stream.Value(z.Uint64()) + 1
}

// next returns the source's next arrival, or nil once the horizon is hit.
// Tuple IDs are left unassigned; the merging caller assigns them in global
// delivery order.
func (g *gen) next() *stream.Tuple {
	// Exponential inter-arrival: -ln(U)/λ seconds, with λ read from the
	// burst schedule at the current regime.
	u := g.rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	gap := stream.Time(-math.Log(u) / g.rate(g.t) * float64(stream.Second))
	if gap < 1 {
		gap = 1
	}
	g.t += gap
	if g.t >= g.horizon {
		return nil
	}
	vals := make([]stream.Value, g.schema.NumCols())
	for c := range vals {
		d := g.spec.DMax
		if o, ok := g.spec.DMaxByCol[c]; ok {
			d = o
		}
		vals[c] = g.draw(d)
	}
	return &stream.Tuple{Source: g.id, TS: g.t, Vals: vals}
}

// Stream returns a pull-based iterator over the workload: each call yields
// the next arrival in (timestamp, source id) order, with IDs assigned in
// delivery order, until the horizon exhausts every source. It produces
// exactly the sequence Generate materializes (see TestStreamMatchesGenerate)
// while keeping only one pending tuple per source in memory — the engine's
// RunStream ingests it directly, so a run's footprint is O(operator state),
// not O(arrivals).
func Stream(cat *stream.Catalog, cfg Config) func() (*stream.Tuple, bool) {
	n := cat.NumSources()
	gens := make([]*gen, n)
	heads := make([]*stream.Tuple, n)
	for id := 0; id < n; id++ {
		gens[id] = newGen(cat, cfg, stream.SourceID(id))
		heads[id] = gens[id].next()
	}
	var nextID uint64
	inOrder := func() (*stream.Tuple, bool) {
		best := -1
		for i, h := range heads {
			// Strict < keeps the lowest source id on timestamp ties —
			// the same total order Generate's stable sort produces.
			if h != nil && (best < 0 || h.TS < heads[best].TS) {
				best = i
			}
		}
		if best < 0 {
			return nil, false
		}
		t := heads[best]
		heads[best] = gens[best].next()
		nextID++
		t.ID = nextID
		return t, true
	}
	if cfg.Disorder > 0 {
		// The jitter rng occupies the id=-1 slot of the per-source seed
		// family, so it never collides with a source's draw sequence.
		return Disordered(inOrder, cfg.Disorder, cfg.Seed-7919)
	}
	return inOrder
}

// delayed is one in-flight tuple of a Disordered iterator: the tuple plus
// its jittered delivery time.
type delayed struct {
	t        *stream.Tuple
	delivery stream.Time
}

// Disordered wraps an in-order (non-decreasing TS, IDs already assigned)
// tuple iterator and re-emits its tuples in jittered delivery order:
// delivery(t) = t.TS + uniform[0, bound]. Timestamps and IDs are untouched —
// only the emission order is perturbed — so the output is a permutation of
// the input in which every tuple appears at most `bound` late relative to
// timestamp order (the bounded-disorder model of DESIGN.md §8). The
// emission order is deterministic for a given seed: ties on delivery time
// break by tuple ID. Memory is O(arrivals within one bound), not O(stream).
func Disordered(next func() (*stream.Tuple, bool), bound stream.Time, seed int64) func() (*stream.Tuple, bool) {
	if bound <= 0 {
		return next
	}
	rng := rand.New(rand.NewSource(seed))
	h := minheap.Heap[delayed]{Less: func(a, b delayed) bool {
		if a.delivery != b.delivery {
			return a.delivery < b.delivery
		}
		return a.t.ID < b.t.ID
	}}
	head, headOK := next()
	return func() (*stream.Tuple, bool) {
		// Admit source tuples until the next one can no longer precede the
		// current heap minimum. Any future tuple f satisfies
		// delivery(f) >= f.TS >= head.TS, so once head.TS exceeds the heap
		// minimum's delivery, that minimum is globally next.
		for headOK && (h.Len() == 0 || head.TS <= h.Min().delivery) {
			h.Push(delayed{t: head, delivery: head.TS + stream.Time(rng.Int63n(int64(bound)+1))})
			head, headOK = next()
		}
		if h.Len() == 0 {
			return nil, false
		}
		return h.Pop().t, true
	}
}

// Generate produces the merged, timestamp-ordered arrival sequence for the
// catalog. Ties are broken by source id then arrival index, making the
// order total and deterministic. Stream is the lazy form of the same
// sequence.
func Generate(cat *stream.Catalog, cfg Config) []*stream.Tuple {
	if cfg.Disorder > 0 {
		// Materialize through Stream so the disordered sequence is
		// element-wise identical to the lazy iterator's.
		next := Stream(cat, cfg)
		var all []*stream.Tuple
		for t, ok := next(); ok; t, ok = next() {
			all = append(all, t)
		}
		return all
	}
	var all []*stream.Tuple
	for id := 0; id < cat.NumSources(); id++ {
		g := newGen(cat, cfg, stream.SourceID(id))
		for t := g.next(); t != nil; t = g.next() {
			all = append(all, t)
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].TS != all[j].TS {
			return all[i].TS < all[j].TS
		}
		return all[i].Source < all[j].Source
	})
	for i, t := range all {
		t.ID = uint64(i + 1)
	}
	return all
}

// Burst appends n tuples of one source at a fixed timestamp with the given
// column values — handy for hand-built traces in tests and examples.
func Burst(cat *stream.Catalog, id stream.SourceID, ts stream.Time, rows ...[]stream.Value) []*stream.Tuple {
	out := make([]*stream.Tuple, 0, len(rows))
	for _, vals := range rows {
		out = append(out, &stream.Tuple{Source: id, TS: ts, Vals: vals})
	}
	return out
}

// Merge combines hand-built traces into one ordered arrival sequence and
// assigns IDs.
func Merge(traces ...[]*stream.Tuple) []*stream.Tuple {
	var all []*stream.Tuple
	for _, tr := range traces {
		all = append(all, tr...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].TS != all[j].TS {
			return all[i].TS < all[j].TS
		}
		return all[i].Source < all[j].Source
	})
	for i, t := range all {
		t.ID = uint64(i + 1)
	}
	return all
}
