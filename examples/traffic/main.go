// Traffic: road-traffic monitoring (the paper's second motivating domain,
// Sec. I). Four detector stations report vehicle sightings (plate bucket,
// lane); the query tracks vehicles observed at all four stations within a
// 5-minute window in the same lane — a left-deep 4-way join, the plan
// family of Figures 14-17. The fourth station sits on a wide highway
// section with many more lanes, reproducing the paper's low-selectivity
// last stream.
//
// Run: go run ./examples/traffic
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/stream"
)

func main() {
	base := exp.Params{
		N:                4,
		Bushy:            false, // stations chained: (((S1 ⋈ S2) ⋈ S3) ⋈ S4)
		Window:           5 * stream.Minute,
		Rate:             1.5,
		DMax:             40,
		LastStreamFactor: 100,
		Horizon:          25 * stream.Minute,
		Seed:             7,
	}
	fmt.Println("traffic: 4 detector stations, left-deep plan, 5-minute window")
	// Paper mode first: suppression never pays for undemanded results, the
	// cost regime of Figures 14-17. The tuples stream through the engine
	// lazily (exp.Params.Run uses source.Stream + engine.RunStream).
	for _, mode := range []struct {
		name string
		m    core.Mode
	}{{"REF", core.REF()}, {"JIT", core.JIT()}, {"DOE", core.DOE()}} {
		p := base
		p.Mode = mode.m
		r := p.Run()
		fmt.Printf("%-4s matches=%-6d cost=%-12d wall=%-12v peak=%8.1fKB suspended=%d resumed=%d\n",
			mode.name, r.Results, r.CostUnits, r.WallTime, r.PeakMemKB,
			r.Counters.Suspended, r.Counters.Resumed)
	}
	// With Drain the operators' timers keep firing after the detectors go quiet:
	// vehicles whose completion was suspended near the end of the run are
	// still reported, so JIT delivers exactly REF's matches — at the price
	// of generating every deferred pair (DESIGN.md §4, cost stance).
	p := base
	p.Mode = core.JIT()
	p.Drain = true
	r := p.Run()
	fmt.Printf("%-4s matches=%-6d cost=%-12d wall=%-12v peak=%8.1fKB suspended=%d resumed=%d (drained)\n",
		"JIT", r.Results, r.CostUnits, r.WallTime, r.PeakMemKB,
		r.Counters.Suspended, r.Counters.Resumed)
}
