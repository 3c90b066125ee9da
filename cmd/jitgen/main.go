// Command jitgen generates a synthetic clique-join workload trace (the
// paper's Sec. VI generator) as CSV on stdout: one line per arrival with
// timestamp (ms), source name, and column values.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

func main() {
	n := flag.Int("n", 4, "number of streaming sources")
	rate := flag.Float64("rate", 1.0, "arrival rate λ (tuples/sec/source)")
	dmax := flag.Int64("dmax", 200, "value domain upper bound")
	horizon := flag.Duration("horizon", 0, "application time horizon (e.g. 30m)")
	minutes := flag.Float64("minutes", 30, "horizon in minutes when -horizon unset")
	flags := exp.NewFlags(flag.CommandLine)
	flags.Workload(5) // a trace has no window for the burst cycle to default to: 5 minutes
	flags.Stream(false)
	flag.Parse()

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "jitgen: "+format+"\n", args...)
		os.Exit(2)
	}
	h := stream.Time(*minutes * float64(stream.Minute))
	if *horizon != 0 {
		h = stream.Time(horizon.Milliseconds())
	}
	var p exp.Params
	if err := flags.Apply(&p); err != nil {
		fail("%v", err)
	}
	p.N, p.Rate, p.DMax, p.Horizon = *n, *rate, *dmax, h
	// The burst cycle is jitgen's own rule (there is no window here for it to
	// default to); the rest of the workload is Params.ValidateWorkload's.
	if p.Burst > 1 && p.BurstPeriod <= 0 {
		fail("-burst needs a positive -burst-period, got %g", float64(p.BurstPeriod)/float64(stream.Minute))
	}
	if p.Burst <= 1 {
		p.BurstPeriod = 0 // the default cycle applies only when bursting
	}
	if err := p.ValidateWorkload(); err != nil {
		fail("%v", err)
	}
	cat, _ := predicate.Clique(*n)
	arrivals := source.Generate(cat, p.SourceConfig())

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, t := range arrivals {
		fmt.Fprintf(w, "%d,%s", int64(t.TS), cat.Source(t.Source).Name)
		for _, v := range t.Vals {
			fmt.Fprintf(w, ",%d", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(os.Stderr, "jitgen: %d arrivals over %v from %d sources\n", len(arrivals), h, *n)
}
