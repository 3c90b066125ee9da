// Command jitbench regenerates the paper's evaluation figures (10-17).
//
// Usage:
//
//	jitbench [-fig N|all] [-scale F] [-size F] [-seed N] [-ablation]
//
// -scale scales the application-time horizon relative to the paper's 5
// hours (floored at 2.5 windows); -scale 1 reproduces the full runs.
// -size optionally scales window and dmax together for quick looks.
// -ablation adds the DOE and Bloom-JIT modes to the comparison.
// -indexed runs every point with hash-indexed join states (DESIGN.md §3)
// instead of the paper's linear scans; under indexing REF's probe cost
// collapses to the matching pairs, so expect the JIT/REF cost ratios to
// invert relative to the paper's figures.
// -shards runs every point across key-partitioned engine replicas
// (DESIGN.md §5); broadcast sources are then ingested once per shard, so
// the work counters include that duplication and sharded sweeps measure
// scaling rather than the paper's overhead shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
)

func main() {
	fig := flag.String("fig", "all", "figure to run: 10..17 or 'all'")
	scale := flag.Float64("scale", 0.02, "horizon scale relative to the paper's 5 hours")
	size := flag.Float64("size", 1.0, "window/domain size scale (1 = paper-exact)")
	ablation := flag.Bool("ablation", false, "include DOE and Bloom-JIT modes")
	shards := flag.Int("shards", 1, "run every point across key-partitioned engine replicas (scaling mode, not paper-comparable; DESIGN.md §5)")
	workload := exp.BindWorkloadFlags(flag.CommandLine, true, 0)
	flag.Parse()

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "jitbench: "+format+"\n", args...)
		os.Exit(2)
	}
	// Validate before running anything: a bad scale or shard count would
	// otherwise be accepted silently (Scale <= 0 floors every horizon at
	// 2.5 windows, -size 0 silently means 1) or panic mid-sweep.
	switch {
	case *scale <= 0:
		fail("-scale must be positive (fraction of the paper's 5-hour horizon), got %g", *scale)
	case *size <= 0 || *size > 1:
		fail("-size must be in (0,1], got %g", *size)
	case *shards < 1:
		fail("-shards must be at least 1, got %d", *shards)
	}
	// Every point of the sweep runs under the same workload flags.
	var p exp.Params
	if err := workload.Apply(&p); err != nil {
		fail("%v", err)
	}
	cfg := exp.Config{
		Scale: *scale, SizeScale: *size, Shards: *shards, Modes: exp.DefaultModes(),
		Seed: p.Seed, Indexed: p.Indexed,
		Zipf: p.Zipf, Burst: p.Burst, BurstPeriod: p.BurstPeriod, Disorder: p.Disorder, Band: p.Band,
	}
	if *ablation {
		cfg.Modes = exp.AblationModes()
	}
	if cfg.Zipf > 1 || cfg.Burst > 1 || cfg.Disorder > 0 || cfg.Band > 0 {
		fmt.Fprintln(os.Stderr, "jitbench: hostile mutators active — figures probe robustness, not the paper's shapes; expect shape deviations")
	}

	var runs []func(exp.Config) *exp.Figure
	if *fig == "all" {
		for id := 10; id <= 17; id++ {
			f, _ := exp.ByID(id)
			runs = append(runs, f)
		}
	} else {
		var id int
		if _, err := fmt.Sscanf(*fig, "%d", &id); err != nil {
			fmt.Fprintf(os.Stderr, "jitbench: bad -fig %q\n", *fig)
			os.Exit(2)
		}
		f, ok := exp.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "jitbench: unknown figure %d (want 10..17)\n", id)
			os.Exit(2)
		}
		runs = append(runs, f)
	}

	for _, run := range runs {
		start := time.Now()
		f := run(cfg)
		f.Render(os.Stdout)
		fmt.Printf("(elapsed %v)\n", time.Since(start).Round(time.Millisecond))
		if bad := f.CheckShape(); len(bad) > 0 {
			for _, v := range bad {
				fmt.Println("  shape deviation:", v)
			}
		}
		fmt.Println()
	}
}
