package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeEndToEnd runs every workload at a few hundred arrivals against a
// really spawned jitserver, layers replay included: every delivery must match
// the oracle, and the replay must reconcile with the server's exit line
// (same cost units, same checkpoint count), or runWorkload fails.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns jitserver processes")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	bin, err := buildServer(root, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		cfg := runConfig{bin: bin, outDir: out, seed: 5, trace: true, size: sizing{peak: 500, warm: 100, lo: 150, hi: 250}}
		if w.durable {
			// At λ=0.5/s/source, 500 arrivals span four windows: enough for
			// mid-run checkpoints on both sides of the comparison.
			cfg.size.peak = 700
		}
		rep, err := runWorkload(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.failed != 0 || rep.metrics["failed_fraction"] != 0 {
			t.Errorf("%s: failed=%d of %d\n  peak:  %v\n  paced: %v", w.name, rep.failed, rep.attempted, rep.peak, rep.paced)
		}
		if rep.attempted <= cfg.size.peak+cfg.size.paced() {
			t.Errorf("%s: attempted=%d counts no deliveries: the smoke stream does not join", w.name, rep.attempted)
		}
		if w.durable && rep.metrics["checkpoint.count"] < 3 {
			t.Errorf("%s: %v checkpoints, want mid-run ones", w.name, rep.metrics["checkpoint.count"])
		}
		for _, name := range []string{"serve.decode_ns_per_frame", "engine.us_per_arrival", "engine.ns_per_cost_unit", "state.probes_per_arrival", "plan.build_us"} {
			if rep.metrics[name] <= 0 {
				t.Errorf("%s: per-layer metric %s reads %v", w.name, name, rep.metrics[name])
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no Chrome trace written: %v", w.name, err)
		}
	}
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json and the harness's own
// tables in step: same workloads, same metric names, units and directions.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the workload table is sized for %d", spec.RunSeconds, refSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the table %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
