// Command jitrun executes an N-way clique continuous query over a synthetic
// workload with a chosen execution mode and prints the run summary — a
// command-line harness for exploring the JIT/REF/DOE/Bloom trade-offs
// outside the fixed figure sweeps.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stream"
)

func main() {
	flags := exp.NewFlags(flag.CommandLine)
	flags.Query()
	flags.Workload(0)
	flags.Stream(true)
	flags.Sharding("run across this many key-partitioned engine replicas (forces drain; DESIGN.md §5)")
	flags.Obs()
	rate := flag.Float64("rate", 1.0, "arrival rate λ (tuples/sec/source)")
	dmax := flag.Int64("dmax", 200, "value domain upper bound")
	minutes := flag.Float64("minutes", 15, "horizon in minutes")
	drain := flag.Bool("drain", false, "after the last arrival, keep firing timer deadlines so suspended results still resume or expire (end-of-stream drain, DESIGN.md §4)")
	drainHorizon := flag.Float64("drain-horizon", 0, "cap the drain at this application time in minutes (0 = last arrival + window)")
	adapt := flag.Bool("adapt", false, "adaptive re-optimization: migrate between bushy and left-deep mid-run on observed feedback (forces drain; DESIGN.md §7)")
	adaptEpoch := flag.Float64("adapt-epoch", 0, "re-optimization decision epoch in minutes (0 = one window)")
	stats := flag.Bool("stats", false, "print the per-operator stats table at exit (probes, MNS detections, suspensions, suppressed pairs, comparisons, lattice nodes, CostUnits) and the accounted peak split by structure")
	traceOut := flag.String("trace-out", "", "write the run's trace events to this file in Chrome trace format (open in chrome://tracing or Perfetto)")
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "jitrun: "+format+"\n", args...)
		os.Exit(2)
	}

	p := exp.Params{
		Rate:         *rate,
		DMax:         *dmax,
		Horizon:      stream.Time(*minutes * float64(stream.Minute)),
		Drain:        *drain,
		DrainHorizon: stream.Time(*drainHorizon * float64(stream.Minute)),
		Adapt:        *adapt,
		AdaptEpoch:   stream.Time(*adaptEpoch * float64(stream.Minute)),
	}
	if err := flags.Apply(&p); err != nil {
		fail("%v", err)
	}

	// What only the command line knows — whether a flag was given or left at
	// its default — is judged here; every other rule is Params.Validate's.
	// Both -shards and -adapt force the end-of-stream drain, so an explicit
	// -drain=false contradicts them: reject rather than silently overriding
	// the user's choice; when -drain was simply left unset, print a notice
	// instead.
	if p.Drains() && !p.Drain {
		switch {
		case explicit["drain"] && p.Shards > 1:
			fail("-drain=false contradicts -shards=%d: sharded execution requires the end-of-stream drain (per-shard exact delivery is what makes the shard union equal the single-engine multiset, DESIGN.md §5)", p.Shards)
		case explicit["drain"]:
			fail("-drain=false contradicts -adapt: the migration handoff requires the end-of-stream drain (DESIGN.md §7)")
		}
		fmt.Fprintln(os.Stderr, "jitrun: notice: forcing the end-of-stream drain (required by -shards/-adapt)")
	}
	tracing := p.ObsAddr != "" || *traceOut != ""
	if explicit["obs-sample"] && !tracing {
		fail("-obs-sample has no effect without -obs-addr or -trace-out")
	}
	if err := p.Validate(); err != nil {
		fail("%v", err)
	}
	if p.Adapt {
		p.AdaptLog = os.Stdout
	}

	// Observability wiring (DESIGN.md §9): one tracer per replica, a single
	// engine being shard 0; the ops endpoint aggregates them under per-shard
	// labels. For the trace file each tracer's recorder keeps every event;
	// /trace serves the last obs.TraceTail of whatever it keeps.
	var tracers []*obs.Tracer
	if tracing {
		reg := obs.NewRegistry()
		p.TraceFor = func(shard int) *obs.Tracer {
			o := flags.ObsOptions(p.Window)
			o.WallLatency, o.Shard = p.ObsAddr != "", shard
			if *traceOut != "" {
				o.Sink = obs.NewRecorder(0)
			}
			tr := obs.New(o)
			tracers = append(tracers, tr)
			reg.Register(tr)
			return tr
		}
		if p.ObsAddr != "" {
			stop, err := flags.ServeObs("jitrun", reg)
			if err != nil {
				fail("%v", err)
			}
			defer stop()
		}
	}

	// The summary: a banner naming the run, the totals line (with the
	// routing split and per-shard lines on a sharded run), the counters.
	banner := fmt.Sprintf("mode=%s plan=%s N=%d w=%v λ=%.2f dmax=%d horizon=%v",
		flags.Mode, plan.ShapeName(p.Bushy), p.N, p.Window, p.Rate, p.DMax, p.Horizon)
	var r engine.Result
	if p.Shards > 1 {
		s := p.RunSharded()
		r = s.Merged
		fmt.Printf("%s shards=%d adapt=%v\n", banner, len(s.Shards), p.Adapt)
		printHostile(p)
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
	} else {
		r = p.Run()
		fmt.Printf("%s drain=%v adapt=%v\n", banner, p.Drains(), p.Adapt)
		printHostile(p)
		fmt.Printf("arrivals=%d results=%d cost=%d wall=%v peakMem=%.1fKB\n",
			r.Arrivals, r.Results, r.CostUnits, r.WallTime, r.PeakMemKB)
	}
	fmt.Println(r.Counters.String())
	if *stats {
		printOps(r.Ops)
		fmt.Printf("mem@peak: %s\n", r.PeakMem)
		for _, op := range r.PeakOps {
			fmt.Printf("mem@peak %s: %s\n", op.Name, op.Mem)
		}
	}
	obsEpilogue(tracers, *traceOut)
}

// printHostile prints the hostile-stream line, if any mutator is active.
func printHostile(p exp.Params) {
	if h := p.Hostile(); h != "" {
		fmt.Println(h)
	}
}

// printOps renders the per-operator stats table (-stats): seven columns of
// each operator's ledger — what it decided (mns, suspended, suppressed) beside
// what its probes and detection cost (cmp, lattice) and its CostUnits, so the
// table shows which operator pays for the suspensions another one enjoys.
func printOps(ops []metrics.OpCounters) {
	fmt.Println("per-operator stats:")
	fmt.Printf("  %-24s %12s %12s %12s %12s %12s %12s %12s\n",
		"operator", "probes", "mns", "suspended", "suppressed", "cmp", "lattice", "cost")
	for _, o := range ops {
		c := o.Counters
		fmt.Printf("  %-24s %12d %12d %12d %12d %12d %12d %12d\n",
			o.Name, c.Probes, c.MNSDetected, c.Suspended, c.SuppressedPairs, c.Comparisons, c.LatticeNodes, c.CostUnits())
	}
}

// obsEpilogue prints the merged event-time latency histogram and writes the
// Chrome trace file, if tracing was on.
func obsEpilogue(tracers []*obs.Tracer, traceOut string) {
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
	// Per-shard recorders concatenate in shard order: each shard's own event
	// order is deterministic, and ChromeTrace keeps shards apart by pid.
	var evs []obs.Event
	for _, tr := range tracers {
		evs = append(evs, tr.Recorder().Events()...)
	}
	if err := os.WriteFile(traceOut, obs.ChromeTrace(evs), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "jitrun: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace: wrote %d events to %s\n", len(evs), traceOut)
}
