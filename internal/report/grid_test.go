package report

import (
	"testing"

	"repro/internal/exp"
)

// TestShortXs pins the short subset: endpoints plus the middle, small
// grids unchanged.
func TestShortXs(t *testing.T) {
	got := ShortXs(exp.Spec{Xs: []float64{10, 15, 20, 25, 30}})
	want := []float64{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	small := exp.Spec{Xs: []float64{3, 4, 5}}
	if g := ShortXs(small); len(g) != 3 || g[0] != 3 || g[2] != 5 {
		t.Fatalf("small grid changed: %v", g)
	}
	override := exp.Spec{Xs: []float64{3, 4, 5, 6}, ShortXs: []float64{3, 4, 5}}
	if g := ShortXs(override); len(g) != 3 || g[2] != 5 {
		t.Fatalf("ShortXs override ignored: %v", g)
	}
}

// TestShortConfigScaling pins the per-shape short scaling: bushy figures
// preserve demand rarity (domain ×√0.3), left-deep figures the partner
// pool (both ×0.5) — except where a spec pins its own faithful point
// (exp.Spec.ShortSizeScale / ShortDomainScale, e.g. Figure 16).
func TestShortConfigScaling(t *testing.T) {
	o := Options{Short: true}
	for _, s := range exp.Specs() {
		cfg := o.ConfigFor(s)
		switch {
		case s.ShortSizeScale > 0 || s.ShortDomainScale > 0:
			// The two overrides apply independently; an unset one keeps the
			// per-shape default.
			if s.ShortSizeScale > 0 && cfg.SizeScale != s.ShortSizeScale {
				t.Fatalf("%s: size override ignored: got %v", s.Name, cfg.SizeScale)
			}
			if s.ShortDomainScale > 0 && cfg.DomainScale != s.ShortDomainScale {
				t.Fatalf("%s: domain override ignored: got %v", s.Name, cfg.DomainScale)
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
