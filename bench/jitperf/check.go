package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// -check re-runs the selected workloads at the seed and length recorded in
// bench/baseline.json and compares every end-to-end metric against the
// recorded value, each with its own bound from BENCHMARK.json — in the style
// of `jitreport -check`. Counts gate exactly: the attempted count (arrivals
// sent plus deliveries the oracle expects), zero failures, and
// cost_units_per_arrival, which is a deterministic function of the input. A
// timing fails when it is worse than the recorded median (over the ten seeds
// of the calibration) by more than its bound; the record is only meaningful
// on the machine that made it.

// exact names the end-to-end metrics that must reproduce bit for bit.
var exact = map[string]bool{"cost_units_per_arrival": true}

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// baselineRun is one workload's record, written by bench/calibrate.py: the
// counts of its seed-1 run, and each metric's median over the calibration's
// runs (ten seeds) — a steadier yardstick for a timing than any single run.
type baselineRun struct {
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Attempted int                `json:"attempted"`
	Exact     map[string]float64 `json:"exact"`
	Median    map[string]float64 `json:"median"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func runCheck(root, bin, out string, selected []workload) error {
	var spec benchSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		return err
	}
	baseline := make(map[string]baselineRun)
	if err := readJSON(filepath.Join(root, "bench", "baseline.json"), &baseline); err != nil {
		return err
	}
	printStamp(root, out)
	bad := 0
	for _, w := range selected {
		base, ok := baseline[w.name]
		if !ok {
			return fmt.Errorf("bench/baseline.json has no record for workload %s", w.name)
		}
		rep, err := runWorkload(runConfig{bin: bin, outDir: out, seed: base.Seed, size: w.size(base.Seconds)}, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Printf("\nworkload %s (seed %d, %d s)\n", w.name, base.Seed, base.Seconds)
		gate := func(ok bool, format string, args ...any) {
			verdict := "ok"
			if !ok {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("  %-4s "+format+"\n", append([]any{verdict}, args...)...)
		}
		gate(rep.failed == 0, "failed=%d (must be 0)", rep.failed)
		gate(rep.attempted == base.Attempted, "attempted=%d recorded=%d (exact)", rep.attempted, base.Attempted)
		for _, d := range spec.EndToEnd {
			got, want := rep.metrics[d.Name], base.Median[d.Name]
			if exact[d.Name] {
				want = base.Exact[d.Name]
				gate(got == want, "%-26s %14.4f recorded %14.4f %s (exact)", d.Name, got, want, d.Unit)
				continue
			}
			worse := (got - want) / want
			if d.Better == "higher" {
				worse = -worse
			}
			gate(worse <= d.Bound, "%-26s %14.4f recorded %14.4f %s (%+.1f%% worse, bound %.0f%%)",
				d.Name, got, want, d.Unit, worse*100, d.Bound*100)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d check(s) failed against bench/baseline.json", bad)
	}
	fmt.Println("\nall checks pass against bench/baseline.json")
	return nil
}
