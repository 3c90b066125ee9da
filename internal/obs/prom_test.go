package obs

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Probes":          "probes",
		"FinalResults":    "final_results",
		"MNSDetected":     "mns_detected",
		"BloomChecks":     "bloom_checks",
		"CatchUpJoins":    "catch_up_joins",
		"LateDropped":     "late_dropped",
		"SuppressedPairs": "suppressed_pairs",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%s)=%s, want %s", in, got, want)
		}
	}
}

// TestWritePromParses round-trips the exposition through the grammar
// validator — the acceptance criterion's promtext check — and verifies the
// per-shard labelling, that every Counters field has a family, and the
// per-operator view: shard0 carries two operators, whose `op` series must
// parse and, family by family, add up with the run ledger to the plan-wide
// series beside them.
func TestWritePromParses(t *testing.T) {
	var lat Histogram
	lat.Observe(0)
	lat.Observe(5)
	lat.Observe(120000)
	run := metrics.Counters{FinalResults: 4, Sweeps: 9, Purged: 2} // Purged: a retired operator's, folded in
	ops := []metrics.OpCounters{
		{Name: "Op1", Counters: metrics.Counters{Probes: 6, Comparisons: 30, MNSDetected: 1, Feedbacks: 1}},
		{Name: "Op2", Counters: metrics.Counters{Probes: 4, Results: 5, MNSDetected: 2}},
	}
	totals := run
	for i := range ops {
		totals.Add(&ops[i].Counters)
	}
	snaps := []*Snapshot{
		{Label: "shard0", Counters: totals, Ops: ops, LiveBytes: 100, LiveBy: metrics.MemLedger{60, 30, 0, 10}, Latency: lat},
		{Label: "shard1", Counters: metrics.Counters{Probes: 20}, LiveBytes: 50},
		nil, // unpublished tracers are skipped
	}
	var b strings.Builder
	WriteProm(&b, snaps)

	samples, err := ParseProm(b.String())
	if err != nil {
		t.Fatalf("exposition fails promtext grammar: %v", err)
	}
	families := map[string]bool{}
	for _, f := range PromFamilies(samples) {
		families[f] = true
	}
	// Every Counters field must expose a family — the reflection-derived
	// names keep new counters visible without wiring.
	ct := reflect.TypeOf(metrics.Counters{})
	for i := 0; i < ct.NumField(); i++ {
		name := "jit_" + snakeCase(ct.Field(i).Name) + "_total"
		if !families[name] {
			t.Errorf("counter family %s missing from exposition", name)
		}
	}
	for _, want := range []string{"jit_cost_units_total", "jit_live_bytes", "jit_latency_event_ms", "jit_latency_wall_ns"} {
		if !families[want] {
			t.Errorf("family %s missing", want)
		}
	}

	byShard := map[string]float64{}
	unexplained := map[string]float64{} // shard0, per family: plan-wide − Σ op
	live := map[string]float64{}        // shard0's live bytes: the total, less each mem series
	mems := 0
	var bucketSeen bool
	for _, s := range samples {
		op, perOp := s.Labels["op"]
		if s.Name == "jit_probes_total" && !perOp {
			byShard[s.Labels["shard"]] = s.Value
		}
		if s.Labels["shard"] == "shard0" && strings.HasSuffix(s.Name, "_total") {
			if !perOp {
				unexplained[s.Name] += s.Value
			} else if op == "Op1" || op == "Op2" {
				unexplained[s.Name] -= s.Value
			} else {
				t.Errorf("%s: unexpected op label %q", s.Name, op)
			}
		}
		if s.Name == "jit_live_bytes" && s.Labels["shard"] == "shard0" {
			if m, split := s.Labels["mem"]; split {
				live[s.Name] -= s.Value
				mems++
				if m == "grave" && s.Value != 30 {
					t.Errorf("jit_live_bytes{mem=grave} = %v, want 30", s.Value)
				}
			} else {
				live[s.Name] += s.Value
			}
		}
		if s.Name == "jit_latency_event_ms_bucket" {
			bucketSeen = true
			if _, ok := s.Labels["le"]; !ok {
				t.Error("histogram bucket without le")
			}
		}
	}
	if mems != int(metrics.NumMem) || live["jit_live_bytes"] != 0 {
		t.Errorf("jit_live_bytes: %d mem series leave %v of the total unexplained; want %d and 0", mems, live["jit_live_bytes"], metrics.NumMem)
	}
	if byShard["shard0"] != 10 || byShard["shard1"] != 20 {
		t.Errorf("per-shard probes wrong: %v", byShard)
	}
	if !bucketSeen {
		t.Error("no latency buckets emitted")
	}
	for i := 0; i < ct.NumField(); i++ {
		name := "jit_" + snakeCase(ct.Field(i).Name) + "_total"
		if got, want := unexplained[name], float64(reflect.ValueOf(run).Field(i).Uint()); got != want {
			t.Errorf("%s: plan-wide minus the op series leaves %v, the run ledger holds %v", name, got, want)
		}
	}
	if got, want := unexplained["jit_cost_units_total"], float64(run.CostUnits()); got != want {
		t.Errorf("jit_cost_units_total: plan-wide minus the op series leaves %v, the run ledger's cost is %v", got, want)
	}
}

func TestParsePromRejects(t *testing.T) {
	bad := []string{
		"jit_x_total 1", // sample without TYPE
		"# TYPE jit_x_total banana\njit_x_total 1",      // unknown type
		"# TYPE 9bad counter\n9bad 1",                   // bad metric name
		"# TYPE jit_x_total counter\njit_x_total{le} 1", // malformed label pair
		"# TYPE jit_x_total counter\njit_x_total nope",  // bad value
		"", // no samples at all
	}
	for _, text := range bad {
		if _, err := ParseProm(text); err == nil {
			t.Errorf("accepted invalid exposition %q", text)
		}
	}
}
