package report

import (
	"fmt"
	"strings"

	"repro/internal/exp"
)

// expectation captures what the paper's version of a figure reports, in
// the qualitative terms the comparison is judged against: the direction of
// the cost curve along the sweep and how JIT's advantage over REF moves.
type expectation struct {
	// costDir is the direction of REF's cost as x grows: +1 rising,
	// -1 falling.
	costDir int
	// paper is the prose recap of the paper's reported behaviour.
	paper string
}

// expectations maps figure number → the paper's reported trends. The texts
// stay qualitative on purpose: the reproduction's cost units are a
// machine-independent analogue of the paper's 2008 CPU seconds, so curve
// *shapes* and *orderings* are comparable but absolute values are not.
var expectations = map[int]expectation{
	10: {+1, "The paper reports both systems' CPU time and memory growing with the " +
		"window: a larger w keeps more tuples alive per state, so every probe scans " +
		"more partners and more partial results accumulate. JIT stays below REF across " +
		"the whole sweep and its advantage widens with w — larger windows hold more " +
		"never-demanded partial results for the feedback mechanism to suppress."},
	11: {+1, "The paper reports cost growing superlinearly with the arrival rate λ " +
		"(both the arrival count and every state's population scale with λ), with JIT " +
		"below REF throughout and the gap widening as λ grows."},
	12: {+1, "The paper reports cost climbing steeply with the number of sources N — " +
		"each extra source adds an operator level and multiplies the intermediate-" +
		"result space — and JIT's advantage growing with N, since deeper plans produce " +
		"more suppressible intermediates."},
	13: {-1, "The paper reports cost falling as dmax grows: a larger value domain " +
		"lowers the join selectivity λ·w/dmax, so probes find fewer partners. JIT " +
		"remains below REF across the sweep."},
	14: {+1, "On the left-deep plan the last stream draws from [1..10²·dmax], making " +
		"the top join extremely low-selectivity: nearly every deep-pipeline " +
		"intermediate is non-demanded. The paper reports costs growing with w and JIT " +
		"suppressing most of the pipeline's production, staying well below REF."},
	15: {+1, "The paper reports the left-deep costs growing superlinearly with λ, with " +
		"JIT's suppression of the low-selectivity pipeline keeping it below REF " +
		"throughout."},
	16: {+1, "The paper reports left-deep cost exploding with N — each level of the " +
		"deep pipeline multiplies intermediates that the top join then discards — and " +
		"JIT's relative advantage growing with N."},
	17: {-1, "The paper reports cost falling as dmax grows (lower selectivity at every " +
		"level), with JIT below REF across the sweep."},
}

// analysis is the computed comparison of one reproduced figure against its
// expectation.
type analysis struct {
	// costDir is the measured direction of REF cost (first vs last point,
	// 5% tolerance): +1 rising, -1 falling, 0 flat.
	costDir int
	// ratioFirst/ratioLast are REF/JIT cost ratios at the sweep ends.
	ratioFirst, ratioLast float64
	// jitAbove lists x-values where JIT cost exceeds REF (paper shape
	// violated); memAbove the same for peak memory.
	jitAbove, memAbove []float64
	// resultsDiffer lists x-values where JIT and REF delivered different
	// final-result counts (a drain-less end-of-stream artifact, see
	// DESIGN.md §4).
	resultsDiffer []float64
}

func analyze(fig *exp.Figure) analysis {
	var a analysis
	pts := fig.Points
	if len(pts) == 0 {
		return a
	}
	first, last := pts[0], pts[len(pts)-1]
	refFirst := float64(first.Results["REF"].CostUnits)
	refLast := float64(last.Results["REF"].CostUnits)
	switch {
	case refLast > refFirst*1.05:
		a.costDir = +1
	case refLast < refFirst*0.95:
		a.costDir = -1
	}
	a.ratioFirst, _ = first.Ratios()
	a.ratioLast, _ = last.Ratios()
	for _, pt := range pts {
		v := pt.Shape()
		if v.CostAbove {
			a.jitAbove = append(a.jitAbove, pt.X)
		}
		if v.MemAbove {
			a.memAbove = append(a.memAbove, pt.X)
		}
		if v.ResultsDiffer {
			a.resultsDiffer = append(a.resultsDiffer, pt.X)
		}
	}
	return a
}

func dirWord(d int) string {
	switch {
	case d > 0:
		return "rises"
	case d < 0:
		return "falls"
	}
	return "stays flat"
}

// compare renders the per-figure comparison paragraphs: the paper's
// reported behaviour, what this reproduction measured, and an explicit
// match/divergence verdict.
func compare(id int, fig *exp.Figure, short bool) string {
	want, ok := expectations[id]
	if !ok {
		return ""
	}
	a := analyze(fig)
	var b strings.Builder

	fmt.Fprintf(&b, "**Paper:** %s\n\n", want.paper)

	fmt.Fprintf(&b,
		"**This reproduction:** REF's cost %s across the sweep; the REF/JIT cost ratio moves from %.2f× at the first point to %.2f× at the last.",
		dirWord(a.costDir), a.ratioFirst, a.ratioLast)
	if len(a.jitAbove) == 0 {
		b.WriteString(" JIT's cost stays at or below REF's at every point.")
	} else {
		fmt.Fprintf(&b, " JIT's cost exceeds REF's at x=%s.", xList(a.jitAbove))
	}
	if len(a.memAbove) > 0 {
		fmt.Fprintf(&b, " JIT's peak memory exceeds REF's at x=%s.", xList(a.memAbove))
	}
	if len(a.resultsDiffer) > 0 {
		fmt.Fprintf(&b,
			" Final-result counts differ at x=%s: without the §4 drain, a result whose resumption falls past the end of the stream stays suspended — the extension section below shows the drain closing exactly this gap.",
			xList(a.resultsDiffer))
	}
	b.WriteString("\n\n")

	var divergences []string
	if a.costDir != want.costDir {
		divergences = append(divergences, fmt.Sprintf(
			"the cost curve %s where the paper's %s", dirWord(a.costDir), dirWord(want.costDir)))
	}
	if len(a.jitAbove) > 0 {
		divergences = append(divergences, fmt.Sprintf(
			"JIT is costlier than REF at x=%s", xList(a.jitAbove)))
	}
	if len(a.memAbove) > 0 {
		divergences = append(divergences, fmt.Sprintf(
			"JIT uses more peak memory than REF at x=%s", xList(a.memAbove)))
	}
	if len(divergences) == 0 {
		b.WriteString("**Verdict: matches the paper.** Curve direction and the JIT-below-REF ordering both reproduce.")
	} else {
		fmt.Fprintf(&b, "**Verdict: diverges** — %s.", strings.Join(divergences, "; "))
		if short {
			b.WriteString(" The short preset shrinks windows and domains to finish in seconds, " +
				"which distorts the suspension economics at the sweep's extremes " +
				"(see the preset notes above); the nightly full-grid run is the " +
				"authoritative comparison.")
		}
	}
	b.WriteString("\n")
	return b.String()
}

func xList(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, trimFloat(x))
	}
	return strings.Join(parts, ", ")
}
