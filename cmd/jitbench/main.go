// Command jitbench regenerates the paper's evaluation figures (10-17).
//
// Usage:
//
//	jitbench [-fig N|all] [-scale F] [-size F] [-ablation] [-shards N] [workload flags]
//
// The workload flags (-seed, -indexed, -zipf, -burst, -burst-period,
// -disorder, -band) are the shared declarations of internal/exp/flags.go;
// they fill the sweep's Config.Workload overlay and hold at every point.
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
	flags := exp.NewFlags(flag.CommandLine)
	flags.Workload(0)
	flags.Stream(true)
	flags.Sharding("run every point across key-partitioned engine replicas (scaling mode, not paper-comparable; DESIGN.md §5)")
	flag.Parse()

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "jitbench: "+format+"\n", args...)
		os.Exit(2)
	}
	// Validate before running anything: a bad scale would otherwise be
	// accepted silently (Scale <= 0 floors every horizon at 2.5 windows,
	// -size 0 silently means 1).
	switch {
	case *scale <= 0:
		fail("-scale must be positive (fraction of the paper's 5-hour horizon), got %g", *scale)
	case *size <= 0 || *size > 1:
		fail("-size must be in (0,1], got %g", *size)
	}
	// Every point of the sweep runs under the same workload flags.
	cfg := exp.Config{Scale: *scale, SizeScale: *size, Modes: exp.DefaultModes()}
	if err := flags.Apply(&cfg.Workload); err != nil {
		fail("%v", err)
	}
	if *ablation {
		cfg.Modes = exp.AblationModes()
	}

	specs := exp.Specs()
	if *fig != "all" {
		var id int
		if _, err := fmt.Sscanf(*fig, "%d", &id); err != nil {
			fail("bad -fig %q", *fig)
		}
		s, ok := exp.SpecByID(id)
		if !ok {
			fail("unknown figure %d (want 10..17)", id)
		}
		specs = []exp.Spec{s}
	}
	// The flags hold at every point, so one resolved cell stands for the
	// sweep.
	if err := specs[0].ParamsAt(cfg, cfg.Modes[0], specs[0].Xs[0]).Validate(); err != nil {
		fail("%v", err)
	}
	if cfg.Workload.Hostile() != "" {
		fmt.Fprintln(os.Stderr, "jitbench: hostile mutators active — figures probe robustness, not the paper's shapes; expect shape deviations")
	}

	for _, s := range specs {
		start := time.Now()
		f := s.Run(cfg)
		f.Render(os.Stdout)
		fmt.Printf("(elapsed %v)\n", time.Since(start).Round(time.Millisecond))
		for _, v := range f.CheckShape() {
			fmt.Println("  shape deviation:", v)
		}
		fmt.Println()
	}
}
