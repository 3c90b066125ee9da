// Package scenario is the hostile-stream equivalence harness (DESIGN.md
// §8): a table-driven matrix that runs every combination of stream mutator
// (Zipf skew, bursts, bounded disorder, band predicates), plan topology,
// execution mode, shard count and adaptive migration through one
// multiset-equivalence check against a drained REF baseline, plus the
// invariants the hostile inputs are designed to stress — late-drop
// conservation under disorder, broadcast fallback under band predicates,
// arrival conservation and partition balance under sharding.
//
// The paper evaluates only friendly traffic: in-order, uniform-domain,
// stationary Poisson equi-joins. This package is where every post-paper
// robustness claim is pinned; the tests live in scenario_test.go. What the
// mutators cost was measured once (DESIGN.md §8 quotes it); wall-clock
// performance is bench/README.md's business.
package scenario

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/plan"
	"repro/internal/stream"
)

// Scenario is one hostile-stream mutator stack. Rate and DMax, when
// non-zero, override the base workload so a scenario can compensate for
// the selectivity its mutators add (skewed and band joins match far more
// pairs per arrival than the uniform equi baseline).
type Scenario struct {
	Name        string
	Zipf        float64
	Burst       float64
	BurstPeriod stream.Time
	Disorder    stream.Time
	Band        stream.Value
	Rate        float64
	DMax        int64
}

// Apply resolves the scenario onto base run parameters.
func (s Scenario) Apply(base exp.Params) exp.Params {
	p := base
	p.Zipf = s.Zipf
	p.Burst = s.Burst
	p.BurstPeriod = s.BurstPeriod
	p.Disorder = s.Disorder
	p.Band = s.Band
	if s.Rate > 0 {
		p.Rate = s.Rate
	}
	if s.DMax > 0 {
		p.DMax = s.DMax
	}
	return p
}

// Hostile reports whether any mutator is active (false only for the
// control scenario).
func (s Scenario) Hostile() bool {
	return s.Zipf > 1 || s.Burst > 1 || s.Disorder > 0 || s.Band > 0
}

// Describe renders the active mutator stack for reports and benchmarks.
func (s Scenario) Describe() string {
	if !s.Hostile() {
		return "in-order uniform equi (control)"
	}
	var parts []string
	if s.Zipf > 1 {
		parts = append(parts, fmt.Sprintf("zipf s=%g", s.Zipf))
	}
	if s.Burst > 1 {
		parts = append(parts, fmt.Sprintf("burst %g×/%v", s.Burst, s.BurstPeriod))
	}
	if s.Disorder > 0 {
		parts = append(parts, fmt.Sprintf("disorder ≤%v", s.Disorder))
	}
	if s.Band > 0 {
		parts = append(parts, fmt.Sprintf("band ±%d", s.Band))
	}
	return strings.Join(parts, ", ")
}

// Suite returns the canonical scenario table: each single mutator, the
// control, and the combinations that stress cross-mutator interactions.
// Rate/DMax overrides keep every scenario's result volume within a small
// factor of the control's — skew and band tolerance both multiply the
// per-predicate match probability, and an N-way clique raises that to the
// sixth power, so the hot scenarios run leaner streams (or, for band,
// wider domains) than the control. The literals are tuned per mode: a
// short-mode stream is too sparse for the full-mode overrides to leave
// any finals to compare.
func Suite(short bool) []Scenario {
	if short {
		return []Scenario{
			{Name: "baseline"},
			{Name: "zipf", Zipf: 1.5, Rate: 0.4},
			{Name: "burst", Burst: 4, BurstPeriod: 40 * stream.Second, Rate: 0.7},
			{Name: "disorder", Disorder: 10 * stream.Second},
			{Name: "band", Band: 2, DMax: 100},
			{Name: "zipf+burst", Zipf: 1.5, Burst: 3, BurstPeriod: 30 * stream.Second, Rate: 0.3},
			{Name: "band+disorder", Band: 2, DMax: 100, Disorder: 10 * stream.Second},
		}
	}
	return []Scenario{
		{Name: "baseline"},
		{Name: "zipf", Zipf: 1.5, Rate: 0.5},
		{Name: "burst", Burst: 4, BurstPeriod: 40 * stream.Second, Rate: 1.2},
		{Name: "disorder", Disorder: 10 * stream.Second},
		{Name: "band", Band: 2, DMax: 120},
		{Name: "zipf+burst", Zipf: 1.5, Burst: 3, BurstPeriod: 30 * stream.Second, Rate: 0.35},
		{Name: "band+disorder", Band: 2, DMax: 120, Disorder: 10 * stream.Second},
	}
}

// Cell is one execution configuration of the matrix: plan topology,
// operator mode, shard count, adaptive migration.
type Cell struct {
	Bushy  bool
	Mode   exp.NamedMode
	Shards int
	Adapt  bool
}

func (c Cell) String() string {
	// Cell names are subtest names; they spell the shape without the hyphen.
	topo := strings.ReplaceAll(plan.ShapeName(c.Bushy), "-", "")
	adapt := ""
	if c.Adapt {
		adapt = "+adapt"
	}
	return fmt.Sprintf("%s/%s/shards=%d%s", topo, c.Mode.Name, c.Shards, adapt)
}

// Apply resolves the cell onto run parameters.
func (c Cell) Apply(p exp.Params) exp.Params {
	p.Bushy = c.Bushy
	p.Mode = c.Mode.Mode
	p.Shards = c.Shards
	p.Adapt = c.Adapt
	return p
}

// Matrix returns the execution cells. The full matrix is the complete
// cross product topology × {REF, JIT, DOE, Bloom} × shards {1, 4} × adapt
// {off, on} — the nightly suite. The short matrix is a cover: every
// dimension value appears in at least one cell, sized for the pre-merge
// race job.
func Matrix(short bool) []Cell {
	if short {
		return []Cell{
			{Bushy: true, Mode: exp.NamedMode{Name: "JIT", Mode: core.JIT()}, Shards: 1},
			{Bushy: false, Mode: exp.NamedMode{Name: "JIT", Mode: core.JIT()}, Shards: 1},
			{Bushy: true, Mode: exp.NamedMode{Name: "DOE", Mode: core.DOE()}, Shards: 4},
			{Bushy: true, Mode: exp.NamedMode{Name: "Bloom", Mode: core.BloomJIT()}, Shards: 1},
			{Bushy: true, Mode: exp.NamedMode{Name: "JIT", Mode: core.JIT()}, Shards: 4, Adapt: true},
		}
	}
	var cells []Cell
	for _, bushy := range []bool{true, false} {
		for _, nm := range exp.AblationModes() {
			for _, shards := range []int{1, 4} {
				for _, adapt := range []bool{false, true} {
					cells = append(cells, Cell{Bushy: bushy, Mode: nm, Shards: shards, Adapt: adapt})
				}
			}
		}
	}
	return cells
}

// Base returns the workload the matrix runs on: an N=4 clique dense
// enough to exercise suspension, resumption and migration (~100 finals at
// full size), yet small enough that the full 7-scenario × 32-cell matrix
// fits a default `go test` timeout. Short mode shrinks it further for the
// pre-merge race job. Drain is on — the REF-equality contract is a
// drained-run property (DESIGN.md §4).
func Base(short bool) exp.Params {
	p := exp.Params{
		Query:   plan.Query{N: 4, Bushy: true, Window: 2 * stream.Minute},
		Rate:    2.5,
		DMax:    24,
		Horizon: 3 * stream.Minute,
		Seed:    1,
		Drain:   true,
	}
	if short {
		p.Rate = 2
		p.DMax = 20
		p.Horizon = 2 * stream.Minute
	}
	return p
}

// Multiset counts the occurrences of each key.
func Multiset(keys []string) map[string]int {
	m := make(map[string]int, len(keys))
	for _, k := range keys {
		m[k]++
	}
	return m
}

// DiffMultisets describes the difference between two multisets, empty when
// equal. Output order is deterministic.
func DiffMultisets(got, want map[string]int) []string {
	var diffs []string
	for k, n := range got {
		if w := want[k]; n != w {
			diffs = append(diffs, fmt.Sprintf("%s: got %d want %d", k, n, w))
		}
	}
	for k, w := range want {
		if _, ok := got[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: got 0 want %d", k, w))
		}
	}
	sort.Strings(diffs)
	return diffs
}
