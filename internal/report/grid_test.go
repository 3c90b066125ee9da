package report

import (
	"slices"
	"testing"

	"repro/internal/exp"
)

// TestShortXs pins the short subset: endpoints plus the middle, small
// grids unchanged, and a figure's own points, on its grid, where
// shortPoints has them.
func TestShortXs(t *testing.T) {
	if got, want := ShortXs(exp.Spec{Xs: []float64{10, 15, 20, 25, 30}}), []float64{10, 20, 30}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	small := exp.Spec{Xs: []float64{3, 4, 5}}
	if g := ShortXs(small); !slices.Equal(g, small.Xs) {
		t.Fatalf("small grid changed: %v", g)
	}
	for id, p := range shortPoints {
		s, ok := exp.SpecByID(id)
		if !ok {
			t.Fatalf("short point for figure %d, which does not exist", id)
		}
		got := ShortXs(s)
		if !slices.Equal(got, p.xs) {
			t.Fatalf("%s: short points %v, want its own %v", s.Name, got, p.xs)
		}
		for _, x := range got {
			if !slices.Contains(s.Xs, x) {
				t.Fatalf("%s: short point %v is not on its grid %v", s.Name, x, s.Xs)
			}
		}
	}
}

// TestShortConfigScaling pins the per-shape short scaling: bushy figures
// preserve demand rarity (domain ×√0.3), left-deep figures the partner
// pool (both ×0.5) — except where a figure has its own faithful point in
// shortPoints (Figure 16).
func TestShortConfigScaling(t *testing.T) {
	o := Options{Short: true}
	for _, s := range exp.Specs() {
		cfg := o.ConfigFor(s)
		p, own := shortPoints[s.ID]
		switch {
		case own:
			if cfg.SizeScale != p.sizeScale || cfg.DomainScale != p.domainScale {
				t.Fatalf("%s: got size %v domain %v, want its own %v and %v", s.Name, cfg.SizeScale, cfg.DomainScale, p.sizeScale, p.domainScale)
			}
		case s.LeftDeep:
			if cfg.SizeScale != 0.5 || cfg.DomainScale != 0.5 {
				t.Fatalf("%s: got size %v domain %v", s.Name, cfg.SizeScale, cfg.DomainScale)
			}
		default:
			if cfg.SizeScale != 0.3 || cfg.DomainScale <= 0.54 || cfg.DomainScale >= 0.55 {
				t.Fatalf("%s: got size %v domain %v", s.Name, cfg.SizeScale, cfg.DomainScale)
			}
		}
	}
	full := Options{}
	if cfg := full.ConfigFor(exp.Specs()[0]); cfg.SizeScale != 1 || cfg.Scale != 0.02 {
		t.Fatalf("full preset scaling: %+v", cfg)
	}
}
