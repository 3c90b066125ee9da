package report

import (
	"math"

	"repro/internal/exp"
)

// shortPoint is one figure's own short-preset point, for a figure the
// preset's default distorts: the x-values it runs, and the (window, domain)
// scale pair it runs them at.
type shortPoint struct {
	xs                     []float64
	sizeScale, domainScale float64
}

// shortPoints holds, by figure ID, the figures whose short preset is their
// own faithful-but-cheap point.
var shortPoints = map[int]shortPoint{
	// Figure 16 keeps the two mid-grid points at a scaling tuned for them:
	// ×0.48 windows with ×0.40 domains keeps N=4/5 faithful (JIT below REF,
	// REF rising) and cheap. The extremes are left out for their cost, not
	// because they invert JIT-vs-REF: under the harness's drop-at-expiry
	// semantics JIT stays below REF at N=3 and N=6, and drained — exact
	// delivery, every result REF builds — TestLeftDeepInversionStudy
	// (internal/scenario) decomposes them: suspension pays at both and
	// repays JIT's machinery (lattice, feedback, catch-up) at both.
	// CHANGES.md has the measured ratios and their history.
	16: {xs: []float64{4, 5}, sizeScale: 0.48, domainScale: 0.40},
}

// ShortXs subsets a figure's x-grid for the short preset: the figure's own
// points when shortPoints has them, else the first, middle and last points
// — enough to show the trend's direction and its endpoints while cutting
// the sweep's cost. Grids of three or fewer points are returned unchanged
// (the slice is reused, never mutated).
func ShortXs(s exp.Spec) []float64 {
	if p, ok := shortPoints[s.ID]; ok {
		return p.xs
	}
	xs := s.Xs
	if len(xs) <= 3 {
		return xs
	}
	return []float64{xs[0], xs[len(xs)/2], xs[len(xs)-1]}
}

// shortSizes returns the (window, domain) scale pair of the short preset
// for one figure: its own point's when shortPoints has one, else the
// per-shape default — see the package documentation for why the two plan
// shapes scale differently.
func shortSizes(s exp.Spec) (sizeScale, domainScale float64) {
	if p, ok := shortPoints[s.ID]; ok {
		return p.sizeScale, p.domainScale
	}
	if s.LeftDeep {
		return 0.5, 0.5
	}
	return 0.3, math.Sqrt(0.3)
}
