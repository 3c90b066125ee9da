package report

import (
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// The JSON schema deliberately records only deterministic quantities —
// engine.Result.WallTime never appears, so RESULTS.json regenerates byte
// for byte (encoding/json sorts map keys; struct fields keep this order).

type jsonReport struct {
	Preset     string       `json:"preset"`
	Seed       int64        `json:"seed"`
	Modes      []string     `json:"modes"`
	GridCells  int          `json:"grid_cells"`
	Figures    []jsonFigure `json:"figures"`
	Extensions Extensions   `json:"extensions"`
}

type jsonFigure struct {
	ID     int         `json:"id"`
	Name   string      `json:"name"`
	Title  string      `json:"title"`
	XLabel string      `json:"x_label"`
	Points []jsonPoint `json:"points"`
}

type jsonPoint struct {
	X       float64               `json:"x"`
	PerMode map[string]jsonResult `json:"per_mode"`
}

type jsonResult struct {
	FinalResults    uint64           `json:"final_results"`
	CostUnits       uint64           `json:"cost_units"`
	PeakMemKB       float64          `json:"peak_mem_kb"`
	Arrivals        int              `json:"arrivals"`
	OrderViolations uint64           `json:"order_violations"`
	Counters        metrics.Counters `json:"counters"`
}

func toJSONResult(r engine.Result) jsonResult {
	return jsonResult{
		FinalResults:    r.Results,
		CostUnits:       r.CostUnits,
		PeakMemKB:       r.PeakMemKB,
		Arrivals:        r.Arrivals,
		OrderViolations: r.OrderViolations,
		Counters:        r.Counters,
	}
}

// JSON renders the machine-readable RESULTS.json (indented, trailing
// newline).
func (r *Report) JSON() ([]byte, error) {
	out := jsonReport{
		Preset:     r.Preset,
		Seed:       r.Seed,
		Modes:      r.Modes,
		GridCells:  r.cells(),
		Extensions: r.Ext,
	}
	for i, fig := range r.Figures {
		jf := jsonFigure{
			ID:     r.Specs[i].ID,
			Name:   fig.ID,
			Title:  fig.Title,
			XLabel: fig.XLabel,
		}
		for _, pt := range fig.Points {
			jp := jsonPoint{X: pt.X, PerMode: map[string]jsonResult{}}
			for _, m := range fig.Modes {
				jp.PerMode[m] = toJSONResult(pt.Results[m])
			}
			jf.Points = append(jf.Points, jp)
		}
		out.Figures = append(out.Figures, jf)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// SVGs renders every figure's SVG keyed by figure name ("fig10").
func (r *Report) SVGs() map[string][]byte {
	out := make(map[string][]byte, len(r.Figures))
	for _, fig := range r.Figures {
		out[fig.ID] = svgFigure(fig)
	}
	return out
}

// Artifacts renders the complete artifact set keyed by repo-relative path
// — RESULTS.md, RESULTS.json and results/figNN.svg. Both `jitreport`
// (write and -check modes) and the golden test consume this one map, so
// the CI drift gate and the test enforce the same contract by
// construction.
func (r *Report) Artifacts() (map[string][]byte, error) {
	out := map[string][]byte{"RESULTS.md": r.Markdown()}
	jsonData, err := r.JSON()
	if err != nil {
		return nil, err
	}
	out["RESULTS.json"] = jsonData
	//jitlint:allow maporder fills a map keyed by filename; per-file bytes are fixed and every consumer orders names before writing or compares per file
	for name, svg := range r.SVGs() {
		out[filepath.Join("results", name+".svg")] = svg
	}
	return out, nil
}

// StaleSVGs lists results/*.svg files under dir that are absent from the
// artifact set — committed plots of a renamed or dropped figure, which
// the drift gates count as drift.
func StaleSVGs(dir string, artifacts map[string][]byte) []string {
	entries, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		return nil
	}
	var stale []string
	for _, e := range entries {
		rel := filepath.Join("results", e.Name())
		if filepath.Ext(e.Name()) == ".svg" {
			if _, ok := artifacts[rel]; !ok {
				stale = append(stale, rel)
			}
		}
	}
	return stale
}
