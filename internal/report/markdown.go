package report

import (
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/obs"
)

// Markdown renders the generated RESULTS.md. The output is a pure function
// of the report contents — regenerating with the same options reproduces
// it byte for byte, which the golden test and the CI drift gate rely on.
func (r *Report) Markdown() []byte {
	var b strings.Builder
	b.WriteString("# RESULTS — Figures 10–17, reproduced\n\n")
	b.WriteString("> Generated by `go run ./cmd/jitreport")
	if r.Preset == "short" {
		b.WriteString(" -short")
	}
	b.WriteString("` — **do not edit by hand**. The golden test\n" +
		"> (`internal/report`) and the CI drift gate regenerate this file and fail on any\n" +
		"> byte of difference.\n\n")

	r.preamble(&b)

	for i, fig := range r.Figures {
		s := r.Specs[i]
		fmt.Fprintf(&b, "## Figure %d — %s\n\n", s.ID, fig.Title)
		fmt.Fprintf(&b, "![%s](results/%s.svg)\n\n", fig.ID, fig.ID)
		b.WriteString("```\n")
		b.WriteString(asciiChart(fig))
		b.WriteString("```\n\n")
		r.table(&b, i)
		b.WriteString(compare(s.ID, fig, r.Preset == "short"))
		b.WriteString("\n")
	}

	r.extensions(&b)
	r.behaviour(&b)
	return []byte(b.String())
}

func (r *Report) preamble(b *strings.Builder) {
	fmt.Fprintf(b, "Preset **`%s`** · seed %d · modes %s · %d grid cells "+
		"(%d figures; one cell per figure, x-point and mode).\n\n",
		r.Preset, r.Seed, strings.Join(r.Modes, "/"), r.cells(), len(r.Figures))

	b.WriteString("**Method.** Each figure sweeps one parameter of the paper's Table III over\n" +
		"the Table II clique plans (Figures 10–13 bushy, 14–17 left-deep) and runs every\n" +
		"mode on an identical workload. The comparison metric is **cost units** —\n" +
		"`metrics.Counters.CostUnits`, a deterministic, machine-independent analogue of\n" +
		"the paper's 2008 CPU seconds — and **peak accounted memory**; wall-clock time is\n" +
		"deliberately excluded so this file regenerates byte-identically on any host.\n" +
		"The harness keeps λ, w and dmax relationships in the regimes the paper pins\n" +
		"(see the `internal/exp` package documentation) and scales only the\n" +
		"application-time horizon, floored at 2.5 windows.\n\n")

	if r.Preset == "short" {
		b.WriteString("**Short preset.** Three x-points per figure (first/middle/last) with shrunk\n" +
			"workloads: bushy figures scale windows ×0.3 and domains ×√0.3 — preserving the\n" +
			"demand-rarity ratio λ·w/dmax² exactly, at the price of a √0.3 smaller partner\n" +
			"pool λ·w/dmax — while left-deep figures scale both ×0.5, keeping their partner\n" +
			"pool closer to the paper's at the price of 2× rarity distortion. Expect the\n" +
			"paper's orderings to hold at the sweep centres and to wobble at extremes where\n" +
			"the distorted quantity dominates; per-figure verdicts call this out. The\n" +
			"nightly full-grid run (all five x-points, unscaled workloads, DOE and\n" +
			"Bloom-JIT included) is the authoritative comparison.\n\n")
	} else {
		b.WriteString("**Full preset.** The paper's complete x-grids with unscaled windows and\n" +
			"domains at 2% of the 5-hour application horizon (floored at 2.5 windows), with\n" +
			"the DOE and Bloom-JIT ablation modes included.\n\n")
	}

	b.WriteString("Companion artifacts: machine-readable [`RESULTS.json`](RESULTS.json), SVG\n" +
		"trend plots under [`results/`](results/); wall-clock performance is measured\n" +
		"by the one served-path benchmark, [`bench/README.md`](bench/README.md).\n\n")
}

func (r *Report) table(b *strings.Builder, i int) {
	fig := r.Figures[i]
	param := strings.Fields(fig.XLabel)[0]
	fmt.Fprintf(b, "| %s |", param)
	for _, m := range fig.Modes {
		fmt.Fprintf(b, " %s cost | %s mem (KB) |", m, m)
	}
	hasRatio := fig.Paired()
	if hasRatio {
		b.WriteString(" REF/JIT cost | REF/JIT mem |")
	}
	b.WriteString("\n|---|")
	for range fig.Modes {
		b.WriteString("---|---|")
	}
	if hasRatio {
		b.WriteString("---|---|")
	}
	b.WriteString("\n")
	for _, pt := range fig.Points {
		fmt.Fprintf(b, "| %s |", trimFloat(pt.X))
		for _, m := range fig.Modes {
			res := pt.Results[m]
			fmt.Fprintf(b, " %s | %.1f |", group(res.CostUnits), res.PeakMemKB)
		}
		if hasRatio {
			cost, mem := pt.Ratios()
			fmt.Fprintf(b, " %.2f× | %.2f× |", cost, mem)
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
}

func (r *Report) extensions(b *strings.Builder) {
	ext := r.Ext
	b.WriteString("## Post-paper extensions on a common workload\n\n")
	fmt.Fprintf(b, "All extension rows run the same workload: a %d-way bushy clique, λ=%s\n"+
		"tuples/sec, w=%s, dmax=%d, 2.5 windows of application time, seed %d — the\n"+
		"dense end-of-stream family of DESIGN.md §4 at report size. The workload is\n"+
		"deliberately dense and high-rarity so final results exist (a 4-clique needs\n"+
		"all six pairwise equalities); JIT's suspension machinery is mostly overhead\n"+
		"in this regime, so these sections check invariants and subsystem behaviour,\n"+
		"not the paper's overhead shape. The paper's 2008 prototype has none of these\n"+
		"subsystems; these sections document how the reproduction extends it.\n\n",
		ext.Base.N, trimFloat(ext.Base.Rate), ext.Base.Window, ext.Base.DMax, ext.Base.Seed)

	b.WriteString("### Hash-indexed join states (DESIGN.md §3)\n\n")
	b.WriteString("| Mode | scan cost | indexed cost | scan comparisons | indexed comparisons | finals equal |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, row := range ext.Indexed {
		fmt.Fprintf(b, "| %s | %s | %s | %s | %s | %v |\n",
			row.Mode, group(row.ScanCost), group(row.IndexedCost),
			group(row.ScanCmp), group(row.IndexedCmp), row.FinalsEqual)
	}
	b.WriteString("\nThe figures above run the paper's linear-scan execution model; with the\n" +
		"hash index on, probes visit only key-matching partners, so REF's comparison\n" +
		"count collapses toward the matching pairs and the paper's JIT-vs-REF cost\n" +
		"shape no longer holds (DESIGN.md §3, \"reproduction caveat\"). Result streams\n" +
		"are bit-identical either way (engine invariant 4).\n\n")

	b.WriteString("### End-of-stream drain (DESIGN.md §4)\n\n")
	b.WriteString("| Mode | finals (drained) | cost | suspended | resumed |\n")
	b.WriteString("|---|---|---|---|---|\n")
	var refFinals uint64
	for _, row := range ext.Drain {
		if row.Mode == "REF" {
			refFinals = row.FinalResults
		}
	}
	allEqual := true
	for _, row := range ext.Drain {
		fmt.Fprintf(b, "| %s | %s | %s | %s | %s |\n",
			row.Mode, group(row.FinalResults), group(row.CostUnits),
			group(row.Suspended), group(row.Resumed))
		if row.FinalResults != refFinals {
			allEqual = false
		}
	}
	if allEqual {
		b.WriteString("\nWith the drain on, **every mode delivers exactly REF's final-result count**\n" +
			"— suspended results whose resumption trigger or anchor expiry falls past the\n" +
			"end of the stream are recovered instead of dropped, closing the drain-less\n" +
			"delivery gaps flagged in the figure verdicts above.\n\n")
	} else {
		b.WriteString("\n**Divergence: drained finals differ across modes** — the §4 exact-delivery\n" +
			"invariant is violated on this workload; investigate before trusting the\n" +
			"figures above.\n\n")
	}

	b.WriteString("### Sharded parallel execution (DESIGN.md §5)\n\n")
	b.WriteString("| Shards | finals | cost (summed) | routed | broadcast | peak mem (KB, summed) |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, row := range ext.Sharded {
		fmt.Fprintf(b, "| %d | %s | %s | %s | %s | %.1f |\n",
			row.Shards, group(row.FinalResults), group(row.CostUnits),
			group(row.Routed), group(row.Broadcasts), row.PeakMemKB)
	}
	b.WriteString("\nEvery shard count delivers the identical result multiset (DESIGN.md §5\n" +
		"merge-order contract). The clique's pairwise-distinct predicates leave only\n" +
		"one equi-class per source pair, so two sources route and the rest broadcast:\n" +
		"per-shard state pruning still trims the summed scan cost, but broadcast\n" +
		"duplication bounds the win far below the fully partitionable chain workload,\n" +
		"whose scaling curve is quoted in DESIGN.md §5.\n\n")

	b.WriteString("### Hostile streams (DESIGN.md §8)\n\n")
	b.WriteString("| Scenario | mutators | REF finals | JIT finals | JIT/REF cost | late dropped | multiset equal |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	allEqual = true
	for _, row := range ext.Hostile {
		fmt.Fprintf(b, "| %s | %s | %s | %s | %.2f× | %s | %v |\n",
			row.Name, row.Mutators, group(row.REFFinals), group(row.JITFinals),
			exp.Ratio(float64(row.JITCost), float64(row.REFCost)),
			group(row.LateDropped), row.Equal)
		if !row.Equal {
			allEqual = false
		}
	}
	if allEqual {
		b.WriteString("\nEach row runs the scenario suite's mutator stack — Zipf-skewed domains,\n" +
			"bursty arrivals, bounded out-of-order delivery, ±band (non-equi) predicates\n" +
			"and their combinations — through a drained JIT run, and **every row delivers\n" +
			"exactly REF's final-result multiset** (not just the count: the delivery logs\n" +
			"match key for key). Rows use the scenario suite's quick sizes; the nightly\n" +
			"matrix in `internal/scenario` crosses the same stacks with every topology,\n" +
			"mode, shard count and adaptive setting; DESIGN.md §8 quotes each mutator's\n" +
			"measured overhead.\n")
	} else {
		b.WriteString("\n**Divergence: a hostile scenario broke JIT/REF multiset equality** — the\n" +
			"DESIGN.md §8 equivalence contract is violated; run the internal/scenario\n" +
			"suite to localise the failing mutator × cell combination.\n")
	}
}

// behaviour renders the sparkline appendix: one behaviour-over-time block
// per figure from the §9 event-time sampler series collected in Build.
// Markdown-only — RESULTS.json keeps its per-x endpoint schema.
func (r *Report) behaviour(b *strings.Builder) {
	if len(r.Behaviour) == 0 {
		return
	}
	b.WriteString("\n## Appendix: behaviour over time (DESIGN.md §9)\n\n")
	b.WriteString("Each figure's last-x JIT cell (the far end of its sweep — the middles all\n" +
		"collapse onto the shared Table III base), re-run once with the `internal/obs`\n" +
		"event-time sampler attached: the application horizon split into 24 equal\n" +
		"stream-time intervals. Every row is the per-interval delta of one counter\n" +
		"(`live bytes` is a gauge sampled at each boundary), scaled to its own row\n" +
		"maximum — `█` is the row max, `▁` is zero. Sampling is stamped in stream\n" +
		"time only, so the appendix regenerates byte-identically on any host, and\n" +
		"the tracing-transparency test (`internal/obs`) pins that the instrumented\n" +
		"re-run reproduces the sweep's counters exactly.\n\n")
	for _, row := range r.Behaviour {
		fmt.Fprintf(b, "### %s — JIT at %s = %s, Δt = %s\n\n",
			row.Fig, strings.Fields(row.XLabel)[0], trimFloat(row.X), row.Dt)
		b.WriteString("```\n")
		sparkRow(b, "probes", row.Samples, func(s obs.Sample) uint64 { return s.Counters.Probes })
		sparkRow(b, "comparisons", row.Samples, func(s obs.Sample) uint64 { return s.Counters.Comparisons })
		sparkRow(b, "finals", row.Samples, func(s obs.Sample) uint64 { return s.Counters.FinalResults })
		sparkRow(b, "suspended", row.Samples, func(s obs.Sample) uint64 { return s.Counters.Suspended })
		sparkRow(b, "resumed", row.Samples, func(s obs.Sample) uint64 { return s.Counters.Resumed })
		sparkGauge(b, "live bytes", row.Samples, func(s obs.Sample) uint64 { return uint64(max(s.LiveBytes, 0)) })
		b.WriteString("```\n\n")
	}
}

// sparkRow renders one delta counter as a labelled sparkline with its total.
func sparkRow(b *strings.Builder, label string, samples []obs.Sample, f func(obs.Sample) uint64) {
	vals := make([]uint64, len(samples))
	var sum uint64
	for i, s := range samples {
		vals[i] = f(s)
		sum += vals[i]
	}
	fmt.Fprintf(b, "%-11s %s  Σ %s\n", label, obs.Spark(vals), group(sum))
}

// sparkGauge renders a boundary-sampled gauge with its peak instead of a sum.
func sparkGauge(b *strings.Builder, label string, samples []obs.Sample, f func(obs.Sample) uint64) {
	vals := make([]uint64, len(samples))
	var peak uint64
	for i, s := range samples {
		vals[i] = f(s)
		if vals[i] > peak {
			peak = vals[i]
		}
	}
	fmt.Fprintf(b, "%-11s %s  peak %s\n", label, obs.Spark(vals), group(peak))
}
