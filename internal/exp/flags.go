package exp

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
)

// Flags holds the parsed values of every flag that two or more of the
// commands share (jitrun, jitbench, jitgen, jitserver). Each flag is
// declared once, here, next to the Params field it fills: a command
// registers the groups it takes, and Apply converts them — minutes and
// seconds to stream time, the mode name to a core.Mode — into a Params. The
// range rules are Params.Validate's, not the binding's.
type Flags struct {
	fs *flag.FlagSet

	// Mode is the -mode name as given, for banners; Apply parses it.
	Mode string

	n           int
	bushy       bool
	window      float64 // minutes
	seed        int64
	zipf, burst float64
	burstPeriod float64 // minutes
	disorder    float64 // seconds
	band        int64
	indexed     bool
	shards      int
	obsAddr     string
	obsSample   float64 // seconds
}

// NewFlags starts a binding on fs; nothing is registered until a group
// method is called.
func NewFlags(fs *flag.FlagSet) *Flags { return &Flags{fs: fs, shards: 1} }

// Query registers the flags that pick the query: -n, -bushy, -window and
// -mode (jitrun, jitserver; the figure sweeps set all four themselves).
func (f *Flags) Query() {
	f.fs.IntVar(&f.n, "n", 4, "number of streaming sources")
	f.fs.BoolVar(&f.bushy, "bushy", true, "bushy plan (false = left-deep)")
	f.fs.Float64Var(&f.window, "window", 5, "window size in minutes")
	f.fs.StringVar(&f.Mode, "mode", "jit", "execution mode: jit, ref, doe, bloom")
}

// Workload registers the generator flags: -seed and the rate and value
// mutators of DESIGN.md §8 (jitrun, jitbench, jitgen). burstPeriod is
// -burst-period's default in minutes: 0, meaning one window, where there is
// a window.
func (f *Flags) Workload(burstPeriod float64) {
	f.fs.Int64Var(&f.seed, "seed", 1, "workload random seed")
	f.fs.Float64Var(&f.zipf, "zipf", 0, "Zipf-skew value domains with this exponent (> 1; 0 = uniform; DESIGN.md §8)")
	f.fs.Float64Var(&f.burst, "burst", 0, "burst factor: multiply each source's rate by this during the first half of every burst period (> 1; 0 = stationary)")
	f.fs.Float64Var(&f.burstPeriod, "burst-period", burstPeriod, "burst cycle length in minutes (0 = one window; jitgen has none and needs a positive length)")
}

// Stream registers -disorder and — for the commands that build a plan —
// -band and -indexed (jitgen only emits a trace).
func (f *Flags) Stream(plan bool) {
	f.fs.Float64Var(&f.disorder, "disorder", 0, "out-of-timestamp-order bound in seconds: generated streams are delivered with delays up to it, and the engine's watermark (jitserver: the ingest session) admits that much lateness exactly (jitserver: incompatible with -dir; DESIGN.md §8)")
	if plan {
		f.fs.Int64Var(&f.band, "band", 0, "replace every equi-join predicate with the band predicate |l-r| <= band (defeats hash keying and key sharding; DESIGN.md §8)")
		f.fs.BoolVar(&f.indexed, "indexed", false, "hash-indexed join states instead of the paper's linear scans (DESIGN.md §3)")
	}
}

// Sharding registers -shards under the command's own description of what a
// sharded run means for it (jitrun, jitbench).
func (f *Flags) Sharding(usage string) { f.fs.IntVar(&f.shards, "shards", 1, usage) }

// Obs registers the ops-endpoint flags -obs-addr and -obs-sample (jitrun,
// jitserver).
func (f *Flags) Obs() {
	f.fs.StringVar(&f.obsAddr, "obs-addr", "", "serve the live ops endpoint on this address: Prometheus /metrics, NDJSON /trace, /debug/pprof (DESIGN.md §9)")
	f.fs.Float64Var(&f.obsSample, "obs-sample", 0, "deterministic sampling interval for the obs time series, in seconds of stream time (0 = one window)")
}

// Apply stores the flag values in p, converted to its units. The two rules
// it checks itself are the ones no Params field can carry: a shard count
// below the flag's floor of 1 (Params reads 0 and 1 alike as unsharded) and
// an -obs-sample that is negative or, below the stream's millisecond, would
// round to 0 and turn sampling off (the interval lives on the tracer, not in
// Params).
func (f *Flags) Apply(p *Params) error {
	switch {
	case f.shards < 1:
		return fmt.Errorf("-shards must be at least 1, got %d", f.shards)
	case f.obsSample < 0:
		return fmt.Errorf("-obs-sample cannot be negative (seconds; 0 = one window), got %g", f.obsSample)
	case f.obsSample > 0 && stream.Time(f.obsSample*float64(stream.Second)) == 0:
		return fmt.Errorf("-obs-sample cannot be below a millisecond (seconds; 0 = one window), got %g", f.obsSample)
	}
	if f.fs.Lookup("mode") != nil {
		m, err := core.ParseMode(f.Mode)
		if err != nil {
			return err
		}
		p.Mode = m
	}
	p.N, p.Bushy = f.n, f.bushy
	p.Window = stream.Time(f.window * float64(stream.Minute))
	p.Seed, p.Zipf, p.Burst = f.seed, f.zipf, f.burst
	p.BurstPeriod = stream.Time(f.burstPeriod * float64(stream.Minute))
	p.Disorder = stream.Time(f.disorder * float64(stream.Second))
	p.Band, p.Indexed = stream.Value(f.band), f.indexed
	p.Shards, p.ObsAddr = f.shards, f.obsAddr
	return nil
}

// ObsOptions resolves the observation flags into the options of one tracer:
// sampling every -obs-sample seconds of stream time (one window when 0) and,
// when the endpoint is on, a recorder of the last obs.TraceTail events for
// /trace to read while the engine is still emitting.
func (f *Flags) ObsOptions(window stream.Time) obs.Options {
	o := obs.Options{SampleEvery: window}
	if f.obsSample > 0 {
		o.SampleEvery = stream.Time(f.obsSample * float64(stream.Second))
	}
	if f.obsAddr != "" {
		o.Sink = obs.NewRecorder(obs.TraceTail)
	}
	return o
}

// ServeObs brings the ops endpoint up on -obs-addr for the registry's
// tracers, announces it on stderr under the command's name, and returns the
// function that takes it down — gracefully: an in-flight scrape of the final
// snapshot gets two seconds to finish reading instead of losing its
// connection mid-body.
func (f *Flags) ServeObs(prog string, reg *obs.Registry) (stop func(), err error) {
	srv, err := obs.Serve(f.obsAddr, reg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: ops endpoint at http://%s/metrics (also /trace, /debug/pprof)\n", prog, srv.Addr())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort on exit
	}, nil
}
