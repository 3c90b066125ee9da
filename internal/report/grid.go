package report

import (
	"math"

	"repro/internal/exp"
)

// ShortXs subsets a figure's x-grid for the short preset: the spec's own
// override when set, else the first, middle and last points — enough to
// show the trend's direction and its endpoints while cutting the sweep's
// cost. Grids of three or fewer points are returned unchanged (the slice
// is reused, never mutated).
func ShortXs(s exp.Spec) []float64 {
	if s.ShortXs != nil {
		return s.ShortXs
	}
	xs := s.Xs
	if len(xs) <= 3 {
		return xs
	}
	return []float64{xs[0], xs[len(xs)/2], xs[len(xs)-1]}
}

// shortSizes returns the (window, domain) scale pair of the short preset
// for one figure: the spec's per-figure override when set, else the
// per-shape default — see the package documentation for why the two plan
// shapes scale differently.
func shortSizes(s exp.Spec) (sizeScale, domainScale float64) {
	sizeScale, domainScale = 0.3, math.Sqrt(0.3)
	if s.LeftDeep {
		sizeScale, domainScale = 0.5, 0.5
	}
	if s.ShortSizeScale > 0 {
		sizeScale = s.ShortSizeScale
	}
	if s.ShortDomainScale > 0 {
		domainScale = s.ShortDomainScale
	}
	return sizeScale, domainScale
}
