// Command jitrun executes an N-way clique continuous query over a synthetic
// workload with a chosen execution mode and prints the run summary — a
// command-line harness for exploring the JIT/REF/DOE/Bloom trade-offs
// outside the fixed figure sweeps.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stream"
)

func main() {
	n := flag.Int("n", 4, "number of streaming sources")
	bushy := flag.Bool("bushy", true, "bushy plan (false = left-deep)")
	rate := flag.Float64("rate", 1.0, "arrival rate λ (tuples/sec/source)")
	dmax := flag.Int64("dmax", 200, "value domain upper bound")
	window := flag.Float64("window", 5, "window size in minutes")
	minutes := flag.Float64("minutes", 15, "horizon in minutes")
	mode := flag.String("mode", "jit", "execution mode: jit, ref, doe, bloom")
	drain := flag.Bool("drain", false, "after the last arrival, keep firing timer deadlines so suspended results still resume or expire (end-of-stream drain, DESIGN.md §4)")
	drainHorizon := flag.Float64("drain-horizon", 0, "cap the drain at this application time in minutes (0 = last arrival + window)")
	shards := flag.Int("shards", 1, "run across this many key-partitioned engine replicas (forces drain; DESIGN.md §5)")
	adapt := flag.Bool("adapt", false, "adaptive re-optimization: migrate between bushy and left-deep mid-run on observed feedback (forces drain; DESIGN.md §7)")
	adaptEpoch := flag.Float64("adapt-epoch", 0, "re-optimization decision epoch in minutes (0 = one window)")
	workload := exp.BindWorkloadFlags(flag.CommandLine, true, 0)
	stats := flag.Bool("stats", false, "print the per-operator stats table at exit (probes, MNS detections, suspensions, suppressed pairs)")
	obsAddr := flag.String("obs-addr", "", "serve the live ops endpoint on this address during the run: Prometheus /metrics, NDJSON /trace, /debug/pprof (DESIGN.md §9)")
	obsAggregate := flag.Bool("obs-aggregate", false, "with -shards, aggregate per-replica series on the ops endpoint (one tracer per replica, per-shard labels)")
	obsSample := flag.Float64("obs-sample", 0, "deterministic sampling interval for the obs time series, in seconds of stream time (0 = one window)")
	traceOut := flag.String("trace-out", "", "write the run's trace events to this file in Chrome trace format (open in chrome://tracing or Perfetto)")
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "jitrun: "+format+"\n", args...)
		os.Exit(2)
	}

	m, err := core.ParseMode(*mode)
	if err != nil {
		fail("%v", err)
	}

	// Flag-combination checks: both -shards and -adapt force the end-of-
	// stream drain, so an explicit -drain=false contradicts them — reject
	// rather than silently overriding the user's choice; when -drain was
	// simply left unset, print a notice instead.
	drainForced := *shards > 1 || *adapt
	if drainForced && explicit["drain"] && !*drain {
		switch {
		case *shards > 1:
			fail("-drain=false contradicts -shards=%d: sharded execution requires the end-of-stream drain (per-shard exact delivery is what makes the shard union equal the single-engine multiset, DESIGN.md §5)", *shards)
		default:
			fail("-drain=false contradicts -adapt: the migration handoff requires the end-of-stream drain (DESIGN.md §7)")
		}
	}
	if drainForced && !*drain {
		fmt.Fprintln(os.Stderr, "jitrun: notice: forcing the end-of-stream drain (required by -shards/-adapt)")
	}
	if explicit["adapt-epoch"] && !*adapt {
		fail("-adapt-epoch has no effect without -adapt")
	}
	if explicit["adapt-epoch"] && *adaptEpoch < 0 {
		fail("-adapt-epoch cannot be negative (minutes; 0 = one window), got %g", *adaptEpoch)
	}
	tracing := *obsAddr != "" || *traceOut != ""
	if explicit["obs-sample"] && *obsSample < 0 {
		fail("-obs-sample cannot be negative (seconds; 0 = one window), got %g", *obsSample)
	}
	if explicit["obs-sample"] && !tracing {
		fail("-obs-sample has no effect without -obs-addr or -trace-out")
	}
	// The ops endpoint on a sharded run needs per-replica aggregation — a
	// single tracer cannot observe N engines. As with -drain above, an
	// explicit -obs-aggregate=false contradicts the combination and is
	// rejected; merely unset gets a notice and is forced on.
	if *obsAddr != "" && *shards > 1 {
		if explicit["obs-aggregate"] && !*obsAggregate {
			fail("-obs-aggregate=false contradicts -obs-addr with -shards=%d: the ops endpoint needs per-replica aggregation to observe a sharded run (DESIGN.md §9)", *shards)
		}
		if !*obsAggregate {
			fmt.Fprintln(os.Stderr, "jitrun: notice: forcing per-replica aggregation (-obs-aggregate) for the ops endpoint on a sharded run")
			*obsAggregate = true
		}
	}

	p := exp.Params{
		N:       *n,
		Bushy:   *bushy,
		Window:  stream.Time(*window * float64(stream.Minute)),
		Rate:    *rate,
		DMax:    *dmax,
		Horizon: stream.Time(*minutes * float64(stream.Minute)),
		Mode:    m,
		Drain:   *drain,
		Adapt:   *adapt,
	}
	if *drainHorizon > 0 {
		p.DrainHorizon = stream.Time(*drainHorizon * float64(stream.Minute))
	} else if *drainHorizon < 0 {
		fail("-drain-horizon cannot be negative, got %g", *drainHorizon)
	}
	if *shards > 1 {
		p.Shards = *shards
	} else if *shards < 1 {
		fail("-shards must be at least 1, got %d", *shards)
	}
	if *adaptEpoch > 0 {
		p.AdaptEpoch = stream.Time(*adaptEpoch * float64(stream.Minute))
	}
	if err := workload.Apply(&p); err != nil {
		fail("%v", err)
	}
	if p.Adapt {
		p.AdaptLog = os.Stdout
	}
	p.ObsAddr = *obsAddr
	p.ObsAggregate = *obsAggregate
	if err := p.Validate(); err != nil {
		fail("%v", err)
	}

	// Observability wiring (DESIGN.md §9): one tracer per engine — single
	// runs get one, sharded runs one per replica via TraceFor. The trace
	// file uses an unlocked MemorySink (read only after the run); the live
	// /trace endpoint a locked RingSink.
	var (
		tracers []*obs.Tracer
		mems    []*obs.MemorySink
	)
	if tracing {
		sampleEvery := p.Window
		if *obsSample > 0 {
			sampleEvery = stream.Time(*obsSample * float64(stream.Second))
		}
		reg := obs.NewRegistry()
		newTracer := func(shard int) *obs.Tracer {
			var tee obs.TeeSink
			if *traceOut != "" {
				m := &obs.MemorySink{}
				mems = append(mems, m)
				tee = append(tee, m)
			}
			if *obsAddr != "" {
				tee = append(tee, obs.NewRingSink(4096))
			}
			var sink obs.Sink = tee
			if len(tee) == 1 {
				sink = tee[0]
			}
			tr := obs.New(obs.Options{
				Sink:        sink,
				SampleEvery: sampleEvery,
				WallLatency: *obsAddr != "",
				Shard:       shard,
			})
			tracers = append(tracers, tr)
			reg.Register(tr)
			return tr
		}
		if p.Shards > 1 {
			p.TraceFor = newTracer
		} else {
			p.Trace = newTracer(0)
		}
		if *obsAddr != "" {
			srv, err := obs.Serve(*obsAddr, reg)
			if err != nil {
				fail("%v", err)
			}
			// Graceful teardown: let an in-flight scrape finish reading the
			// final snapshot instead of tearing its connection mid-body.
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				srv.Shutdown(ctx) //nolint:errcheck // best-effort on exit
			}()
			fmt.Fprintf(os.Stderr, "jitrun: ops endpoint at http://%s/metrics (also /trace, /debug/pprof)\n", srv.Addr())
		}
	}

	if p.Shards > 1 {
		s := p.RunSharded()
		r := s.Merged
		fmt.Printf("mode=%s plan=%s N=%d w=%v λ=%.2f dmax=%d horizon=%v shards=%d adapt=%v\n",
			*mode, plan.ShapeName(*bushy), *n, p.Window, *rate, *dmax, p.Horizon, len(s.Shards), *adapt)
		if h := hostileDesc(p); h != "" {
			fmt.Println(h)
		}
		if s.Fallback {
			fmt.Println("no plan-wide partition key — fell back to a single replica")
		} else {
			fmt.Printf("key=%v routed=%d broadcast=%d\n", s.Key, s.Routed, s.Broadcasts)
		}
		fmt.Printf("ingests=%d results=%d cost=%d wall=%v peakMem=%.1fKB (summed over shards)\n",
			r.Arrivals, r.Results, r.CostUnits, r.WallTime, r.PeakMemKB)
		for i, sr := range s.Shards {
			fmt.Printf("  shard %d: ingests=%d results=%d cost=%d peakMem=%.1fKB\n",
				i, sr.Arrivals, sr.Results, sr.CostUnits, sr.PeakMemKB)
		}
		fmt.Println(r.Counters.String())
		if *stats {
			printOpStats(r.Ops)
		}
		obsEpilogue(tracers, mems, *traceOut)
		return
	}
	r := p.Run()
	fmt.Printf("mode=%s plan=%s N=%d w=%v λ=%.2f dmax=%d horizon=%v drain=%v adapt=%v\n",
		*mode, plan.ShapeName(*bushy), *n, p.Window, *rate, *dmax, p.Horizon, *drain || p.Adapt, *adapt)
	if h := hostileDesc(p); h != "" {
		fmt.Println(h)
	}
	fmt.Printf("arrivals=%d results=%d cost=%d wall=%v peakMem=%.1fKB\n",
		r.Arrivals, r.Results, r.CostUnits, r.WallTime, r.PeakMemKB)
	fmt.Println(r.Counters.String())
	if *stats {
		printOpStats(r.Ops)
	}
	obsEpilogue(tracers, mems, *traceOut)
}

// printOpStats renders the per-operator stats table (-stats).
func printOpStats(ops []metrics.NamedOpStats) {
	fmt.Println("per-operator stats:")
	fmt.Printf("  %-24s %12s %12s %12s %12s\n", "operator", "probes", "mns", "suspended", "suppressed")
	for _, o := range ops {
		fmt.Printf("  %-24s %12d %12d %12d %12d\n",
			o.Name, o.Stats.Probes, o.Stats.MNSDetected, o.Stats.Suspended, o.Stats.SuppressedPairs)
	}
}

// obsEpilogue prints the merged event-time latency histogram and writes the
// Chrome trace file, if tracing was on.
func obsEpilogue(tracers []*obs.Tracer, mems []*obs.MemorySink, traceOut string) {
	if len(tracers) == 0 {
		return
	}
	var lat obs.Histogram
	for _, tr := range tracers {
		lat.Merge(tr.Latency())
	}
	fmt.Printf("latency(event-ms): %s\n", lat.String())
	if traceOut == "" {
		return
	}
	// Per-shard sinks concatenate in shard order: each shard's own event
	// order is deterministic, and ChromeTrace keeps shards apart by pid.
	var evs []obs.Event
	for _, m := range mems {
		evs = append(evs, m.Events()...)
	}
	if err := os.WriteFile(traceOut, obs.ChromeTrace(evs), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "jitrun: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace: wrote %d events to %s\n", len(evs), traceOut)
}

// hostileDesc summarizes the active hostile-stream mutators, or "" when the
// run uses the paper's friendly traffic.
func hostileDesc(p exp.Params) string {
	var parts []string
	if p.Zipf > 1 {
		parts = append(parts, fmt.Sprintf("zipf=%.2f", p.Zipf))
	}
	if p.Burst > 1 {
		period := "1w"
		if p.BurstPeriod > 0 {
			period = p.BurstPeriod.String()
		}
		parts = append(parts, fmt.Sprintf("burst=%.1fx/%s", p.Burst, period))
	}
	if p.Disorder > 0 {
		parts = append(parts, fmt.Sprintf("disorder<=%v", p.Disorder))
	}
	if p.Band > 0 {
		parts = append(parts, fmt.Sprintf("band=±%d", p.Band))
	}
	if len(parts) == 0 {
		return ""
	}
	return "hostile: " + strings.Join(parts, " ")
}
