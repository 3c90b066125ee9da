package obs

import (
	"fmt"
	"io"
	"reflect"
	"strings"

	"repro/internal/metrics"
)

// Prometheus text exposition (version 0.0.4) of tracer snapshots. Counter
// metric names are derived by reflection over metrics.Counters — a new
// counter field appears on the endpoint without any wiring here — and every
// series carries a `shard` label so sharded runs expose per-replica and
// (summed by the scraper) fleet views. Each counter family holds the plan-wide
// series and, under an additional `op` label, one series per live operator
// (Snapshot.Ops): the per-operator ledger that says where a shard's work went.
// Select `op=""` for totals; what the `op` series leave unexplained is the
// plan's run ledger (sink, sweeps, migrations, retired operators). The
// accounted live bytes are split the same way by structure, under a `mem`
// label (metrics.Mem: state, grave, black, mns, pending, bloom), and the
// split sums to the total beside it.

// snakeCase converts a Go field name to a metric-name fragment:
// "FinalResults" → "final_results", "MNSDetected" → "mns_detected" (an
// acronym run stays one word).
func snakeCase(name string) string {
	var b strings.Builder
	rs := []rune(name)
	for i, r := range rs {
		if r >= 'A' && r <= 'Z' {
			prevLower := i > 0 && rs[i-1] >= 'a' && rs[i-1] <= 'z'
			nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
			if i > 0 && (prevLower || nextLower) {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// counterFieldNames returns metrics.Counters' field names in struct order.
func counterFieldNames() []string {
	t := reflect.TypeOf(metrics.Counters{})
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = t.Field(i).Name
	}
	return names
}

// WriteProm writes the snapshots as Prometheus text exposition. Families
// appear in a fixed order (counters in Counters struct order, then gauges,
// then the latency histograms); within a family, one sample per snapshot in
// the given order.
func WriteProm(w io.Writer, snaps []*Snapshot) {
	var live []*Snapshot
	for _, s := range snaps {
		if s != nil {
			live = append(live, s)
		}
	}
	fields := counterFieldNames()
	for i, f := range fields {
		name := "jit_" + snakeCase(f) + "_total"
		fmt.Fprintf(w, "# HELP %s Cumulative %s count from metrics.Counters.\n", name, f)
		fmt.Fprintf(w, "# TYPE %s counter\n", name)
		for _, s := range live {
			v := reflect.ValueOf(s.Counters).Field(i).Uint()
			fmt.Fprintf(w, "%s{shard=%q} %d\n", name, s.Label, v)
			for _, op := range s.Ops {
				v := reflect.ValueOf(op.Counters).Field(i).Uint()
				fmt.Fprintf(w, "%s{shard=%q,op=%q} %d\n", name, s.Label, op.Name, v)
			}
		}
	}
	fmt.Fprintf(w, "# HELP jit_cost_units_total Weighted cost units (paper's unit-cost model).\n")
	fmt.Fprintf(w, "# TYPE jit_cost_units_total counter\n")
	for _, s := range live {
		fmt.Fprintf(w, "jit_cost_units_total{shard=%q} %d\n", s.Label, s.Counters.CostUnits())
		for _, op := range s.Ops {
			fmt.Fprintf(w, "jit_cost_units_total{shard=%q,op=%q} %d\n", s.Label, op.Name, op.Counters.CostUnits())
		}
	}
	gauges := []struct {
		name, help string
		val        func(*Snapshot) int64
		// by, when set, splits the gauge by structure under a `mem` label,
		// beside the total, and byOp by operator under an `op` label.
		by   func(*Snapshot) metrics.MemLedger
		byOp func(*Snapshot) []metrics.OpMem
	}{
		{"jit_live_bytes", "Accounted live state bytes; the mem series split them by structure, the op series by operator.",
			func(s *Snapshot) int64 { return s.LiveBytes }, func(s *Snapshot) metrics.MemLedger { return s.LiveBy },
			func(s *Snapshot) []metrics.OpMem { return s.LiveByOp }},
		{"jit_peak_bytes", "Accounted peak state bytes.", func(s *Snapshot) int64 { return s.PeakBytes }, nil, nil},
		{"jit_clock_ms", "Engine event-time clock (stream ms).", func(s *Snapshot) int64 { return int64(s.Clock) }, nil, nil},
		{"jit_samples", "Time-series samples taken.", func(s *Snapshot) int64 { return int64(s.Samples) }, nil, nil},
	}
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for _, s := range live {
			fmt.Fprintf(w, "%s{shard=%q} %d\n", g.name, s.Label, g.val(s))
			if g.by != nil {
				for m, n := range g.by(s) {
					fmt.Fprintf(w, "%s{shard=%q,mem=%q} %d\n", g.name, s.Label, metrics.Mem(m), n)
				}
			}
			if g.byOp != nil {
				for _, op := range g.byOp(s) {
					n := int64(0)
					for _, b := range op.Mem {
						n += b
					}
					fmt.Fprintf(w, "%s{shard=%q,op=%q} %d\n", g.name, s.Label, op.Name, n)
				}
			}
		}
	}
	writePromHist(w, "jit_latency_event_ms", "Arrival-to-delivery event-time latency (stream ms).",
		live, func(s *Snapshot) Histogram { return s.Latency })
	writePromHist(w, "jit_latency_wall_ns", "Arrival-to-delivery wall-clock latency twin (ns).",
		live, func(s *Snapshot) Histogram { return s.WallLat })
}

func writePromHist(w io.Writer, name, help string, snaps []*Snapshot, get func(*Snapshot) Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, s := range snaps {
		h := get(s)
		// Emit buckets up to the highest populated one; log-bucket upper
		// bounds as le edges, cumulative counts per the exposition format.
		top := 0
		for i, b := range h.Buckets {
			if b > 0 {
				top = i
			}
		}
		var cum uint64
		for i := 0; i <= top; i++ {
			cum += h.Buckets[i]
			fmt.Fprintf(w, "%s_bucket{shard=%q,le=\"%d\"} %d\n", name, s.Label, BucketUpper(i), cum)
		}
		fmt.Fprintf(w, "%s_bucket{shard=%q,le=\"+Inf\"} %d\n", name, s.Label, h.Count)
		fmt.Fprintf(w, "%s_sum{shard=%q} %d\n", name, s.Label, h.Sum)
		fmt.Fprintf(w, "%s_count{shard=%q} %d\n", name, s.Label, h.Count)
	}
}
