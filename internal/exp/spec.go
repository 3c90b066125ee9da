package exp

import (
	"sort"

	"repro/internal/engine"
	"repro/internal/stream"
)

// Spec declaratively describes one reproduced evaluation figure: which
// Table III base it starts from (bushy or left-deep), which parameter the
// figure sweeps, and the x-grid of Sec. VI. cmd/jitbench and the report
// harness (internal/report) both run the same specs, so the sweep grid has
// exactly one definition.
type Spec struct {
	// ID is the paper's figure number (10..17).
	ID int
	// Name is the stable slug used in output artifacts ("fig10").
	Name string
	// Title and XLabel match the paper's axis captions.
	Title  string
	XLabel string
	// Xs is the full sweep grid of the swept parameter, in the paper's
	// order (ascending).
	Xs []float64
	// LeftDeep selects the left-deep Table III base; false means bushy.
	LeftDeep bool
	// Apply writes the swept x-value into the base parameters.
	Apply func(p *Params, x float64)
}

func setWindowMin(p *Params, x float64) { p.Window = stream.Time(x * float64(stream.Minute)) }
func setRate(p *Params, x float64)      { p.Rate = x }
func setN(p *Params, x float64)         { p.N = int(x) }
func setDMax(p *Params, x float64)      { p.DMax = int64(x) }

// Specs returns the eight figure specifications of Sec. VI in ascending
// figure order. The slice is freshly allocated; callers may reorder it.
func Specs() []Spec {
	return []Spec{
		{ID: 10, Name: "fig10", Title: "Overhead vs window size w (bushy plan)",
			XLabel: "w (min)", Xs: []float64{10, 15, 20, 25, 30}, Apply: setWindowMin},
		{ID: 11, Name: "fig11", Title: "Overhead vs stream rate λ (bushy plan)",
			XLabel: "λ (tuples/sec)", Xs: []float64{0.4, 0.7, 1.0, 1.3, 1.6}, Apply: setRate},
		{ID: 12, Name: "fig12", Title: "Overhead vs number of sources N (bushy plan)",
			XLabel: "N", Xs: []float64{4, 5, 6, 7, 8}, Apply: setN},
		{ID: 13, Name: "fig13", Title: "Overhead vs max data value dmax (bushy plan)",
			XLabel: "dmax", Xs: []float64{100, 150, 200, 250, 300}, Apply: setDMax},
		{ID: 14, Name: "fig14", Title: "Overhead vs window size w (left-deep plan)",
			XLabel: "w (min)", Xs: []float64{5, 7.5, 10, 12.5, 15}, LeftDeep: true, Apply: setWindowMin},
		{ID: 15, Name: "fig15", Title: "Overhead vs stream rate λ (left-deep)",
			XLabel: "λ (tuples/sec)", Xs: []float64{0.4, 0.7, 1.0, 1.3, 1.6}, LeftDeep: true, Apply: setRate},
		{ID: 16, Name: "fig16", Title: "Overhead vs number of sources N (left-deep)",
			XLabel: "N", Xs: []float64{3, 4, 5, 6}, LeftDeep: true, Apply: setN},
		{ID: 17, Name: "fig17", Title: "Overhead vs max data value dmax (left-deep)",
			XLabel: "dmax", Xs: []float64{30, 40, 50, 60, 70}, LeftDeep: true, Apply: setDMax},
	}
}

// SpecByID returns the spec for one figure number (10..17).
func SpecByID(id int) (Spec, bool) {
	specs := Specs()
	i := sort.Search(len(specs), func(i int) bool { return specs[i].ID >= id })
	if i < len(specs) && specs[i].ID == id {
		return specs[i], true
	}
	return Spec{}, false
}

// Base writes the spec's Table III defaults (unscaled, mode-less) over p:
// bushy figures run w=20min, λ=1, N=6, dmax=200; left-deep ones w=10min,
// λ=1, N=4, dmax=50 with the last stream fed from [1..10²·dmax].
func (s Spec) Base(p Params) Params {
	if s.LeftDeep {
		p.N, p.Bushy = 4, false
		p.Window, p.Rate, p.DMax = 10*stream.Minute, 1.0, 50
		p.LastStreamFactor = 100
		return p
	}
	p.N, p.Bushy = 6, true
	p.Window, p.Rate, p.DMax = 20*stream.Minute, 1.0, 200
	p.LastStreamFactor = 0
	return p
}

// ParamsAt resolves one grid cell into fully-specified run parameters: the
// config's sweep-wide overlay, then the base defaults, the swept x-value,
// the mode, and the config's size and horizon scaling.
func (s Spec) ParamsAt(cfg Config, nm NamedMode, x float64) Params {
	p := s.Base(cfg.Workload)
	s.Apply(&p, x)
	p.Mode = nm.Mode
	p.Window = cfg.sizeW(p.Window)
	p.DMax = cfg.sizeD(p.DMax)
	p.Horizon = cfg.horizonFor(p.Window)
	return p
}

// Run executes the figure over its full x-grid.
func (s Spec) Run(cfg Config) *Figure { return s.RunXs(cfg, s.Xs) }

// RunXs executes the figure over an explicit x-grid (a subset of Xs for
// quick presets; any grid is legal).
func (s Spec) RunXs(cfg Config, xs []float64) *Figure {
	fig := &Figure{ID: s.Name, Title: s.Title, XLabel: s.XLabel}
	for _, nm := range cfg.Modes {
		fig.Modes = append(fig.Modes, nm.Name)
	}
	for _, x := range xs {
		pt := Point{X: x, Results: make(map[string]engine.Result, len(cfg.Modes))}
		for _, nm := range cfg.Modes {
			pt.Results[nm.Name] = s.ParamsAt(cfg, nm, x).Run()
		}
		fig.Points = append(fig.Points, pt)
	}
	return fig
}
