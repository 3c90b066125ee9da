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
	// A trace has no window for the burst cycle to default to: 5 minutes.
	workload := exp.BindWorkloadFlags(flag.CommandLine, false, 5)
	flag.Parse()

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "jitgen: "+format+"\n", args...)
		os.Exit(2)
	}
	h := stream.Time(*minutes * float64(stream.Minute))
	if *horizon != 0 {
		h = stream.Time(horizon.Milliseconds())
	}
	switch {
	case *n < 2:
		fail("-n must be at least 2, got %d", *n)
	case *rate <= 0:
		fail("-rate must be positive, got %g", *rate)
	case *dmax < 1:
		fail("-dmax must be at least 1, got %d", *dmax)
	case h <= 0:
		fail("horizon must be positive (got %v)", h)
	case workload.Burst > 1 && workload.BurstPeriod <= 0:
		fail("-burst needs a positive -burst-period, got %g", workload.BurstPeriod)
	}
	if workload.Burst <= 1 {
		workload.BurstPeriod = 0 // the default cycle applies only when bursting
	}
	p := exp.Params{N: *n, Rate: *rate, DMax: *dmax, Horizon: h}
	if err := workload.Apply(&p); err != nil {
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
