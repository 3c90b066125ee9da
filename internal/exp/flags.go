package exp

import (
	"flag"

	"repro/internal/stream"
)

// WorkloadFlags holds the parsed values of the workload flags that jitrun,
// jitbench and jitgen share: -seed and the hostile-stream mutators of
// DESIGN.md §8. They are declared once here, next to the Params fields they
// fill, and range-checked by the rules Params.Validate applies.
type WorkloadFlags struct {
	Seed        int64
	Indexed     bool
	Zipf        float64
	Burst       float64
	BurstPeriod float64 // minutes
	Disorder    float64 // seconds
	Band        int64
}

// BindWorkloadFlags registers -seed, -zipf, -burst, -burst-period and
// -disorder on fs, and — for the commands that build a plan — -band and
// -indexed (jitgen only emits a trace). burstPeriod is -burst-period's
// default in minutes: 0, meaning one window, where there is a window.
func BindWorkloadFlags(fs *flag.FlagSet, plan bool, burstPeriod float64) *WorkloadFlags {
	f := &WorkloadFlags{}
	fs.Int64Var(&f.Seed, "seed", 1, "workload random seed")
	fs.Float64Var(&f.Zipf, "zipf", 0, "Zipf-skew value domains with this exponent (> 1; 0 = uniform; DESIGN.md §8)")
	fs.Float64Var(&f.Burst, "burst", 0, "burst factor: multiply each source's rate by this during the first half of every burst period (> 1; 0 = stationary)")
	fs.Float64Var(&f.BurstPeriod, "burst-period", burstPeriod, "burst cycle length in minutes (0 = one window; jitgen has none and needs a positive length)")
	fs.Float64Var(&f.Disorder, "disorder", 0, "deliver the stream out of timestamp order with delays up to this many seconds; the engine's watermark admits them exactly (DESIGN.md §8)")
	if plan {
		fs.Int64Var(&f.Band, "band", 0, "replace every equi-join predicate with the band predicate |l-r| <= band (defeats hash keying and key sharding; DESIGN.md §8)")
		fs.BoolVar(&f.Indexed, "indexed", false, "hash-indexed join states instead of the paper's linear scans (DESIGN.md §3)")
	}
	return f
}

// Apply stores the flag values in p, converted to its units, and reports
// the first one out of range.
func (f *WorkloadFlags) Apply(p *Params) error {
	p.Seed, p.Indexed = f.Seed, f.Indexed
	p.Zipf, p.Burst = f.Zipf, f.Burst
	p.BurstPeriod = stream.Time(f.BurstPeriod * float64(stream.Minute))
	p.Disorder = stream.Time(f.Disorder * float64(stream.Second))
	p.Band = stream.Value(f.Band)
	return p.validateMutators()
}
