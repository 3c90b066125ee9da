package report

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/scenario"
	"repro/internal/stream"
)

// Options selects the report preset.
type Options struct {
	// Short runs the quick preset: three x-points per figure, shrunk
	// workloads, JIT/REF only. The committed RESULTS.md is this preset's
	// output; the golden test regenerates it byte for byte.
	Short bool
	// Seed is the workload seed (default 1). The committed artifacts use
	// the default.
	Seed int64
	// Progress, when non-nil, receives one line per completed figure with
	// wall-clock timing. Wall time never enters the artifacts themselves —
	// it would break byte-stable regeneration.
	Progress io.Writer
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Preset returns the preset slug recorded in the artifacts.
func (o Options) Preset() string {
	if o.Short {
		return "short"
	}
	return "full"
}

// Modes returns the mode set of the preset: the paper's JIT-vs-REF
// comparison in short mode, the full ablation (plus DOE and Bloom-JIT) in
// full mode.
func (o Options) Modes() []exp.NamedMode {
	if o.Short {
		return exp.DefaultModes()
	}
	return exp.AblationModes()
}

// ConfigFor resolves the exp configuration used for one figure under the
// preset (see the package documentation for the short preset's per-shape
// scaling rationale).
func (o Options) ConfigFor(s exp.Spec) exp.Config {
	cfg := exp.Config{Modes: o.Modes(), Workload: exp.Params{Seed: o.seed()}}
	if o.Short {
		cfg.Scale = 0.001 // horizon floors at 2.5 windows
		cfg.SizeScale, cfg.DomainScale = shortSizes(s)
	} else {
		cfg.Scale = 0.02
		cfg.SizeScale = 1
	}
	return cfg
}

// Report holds one complete sweep: every figure's measurements plus the
// post-paper extension runs. All content is deterministic for fixed
// Options.
type Report struct {
	Preset string
	Seed   int64
	Modes  []string
	Grid   []Cell
	// Figures holds the reproduced figures in ascending figure order,
	// aligned with Specs.
	Figures []*exp.Figure
	Specs   []exp.Spec
	Ext     Extensions
	// Behaviour holds one behaviour-over-time series per figure: the
	// figure's last-x JIT cell re-run with the DESIGN.md §9 event-time
	// sampler attached. Rendered as the RESULTS.md sparkline appendix;
	// deliberately absent from RESULTS.json (the per-x endpoint numbers
	// there are the machine-readable record; the series is a shape aid).
	Behaviour []BehaviourRow
}

// BehaviourRow is one figure's sampled time series.
type BehaviourRow struct {
	// Fig is the figure slug ("fig10"); XLabel/X identify the re-run grid
	// cell — the last point of the sweep the preset actually ran. The
	// sweep middles are useless here: every figure's middle x IS the
	// common Table III base (the paper varies one parameter around shared
	// defaults), so middle-x series would repeat one identical workload
	// eight times. The far end of each sweep is a distinct workload and
	// the regime where the swept parameter's effect is largest.
	Fig    string
	XLabel string
	X      float64
	// Dt is the uniform sampling interval in stream time: the cell's
	// horizon split into behaviourBuckets equal event-time intervals.
	Dt stream.Time
	// Samples carries per-interval Counters deltas plus the LiveBytes
	// gauge, stamped on the absolute Dt grid (the obs tracer's sampling rules).
	Samples []obs.Sample
}

// behaviourBuckets is the sparkline resolution: one sample per 1/24 of the
// horizon keeps every appendix row one terminal line wide regardless of
// preset scaling.
const behaviourBuckets = 24

// behaviourFor re-runs one figure's last-x JIT cell with a sampler
// attached. The extra run is deliberate: threading a tracer through the
// sweep itself would make every figure's measurement carry (tiny but
// nonzero) instrumentation wall-cost for a series only this appendix
// needs, and the transparency contract (internal/obs) guarantees the
// re-run reproduces the sweep's counters exactly.
func behaviourFor(o Options, s exp.Spec, xs []float64) BehaviourRow {
	x := xs[len(xs)-1]
	p := s.ParamsAt(o.ConfigFor(s), exp.NamedMode{Name: "JIT", Mode: core.JIT()}, x)
	dt := p.Horizon / behaviourBuckets
	if dt <= 0 {
		dt = 1
	}
	tr := obs.New(obs.Options{SampleEvery: dt})
	p.TraceFor = func(int) *obs.Tracer { return tr }
	p.Run()
	return BehaviourRow{Fig: s.Name, XLabel: s.XLabel, X: x, Dt: dt, Samples: tr.Samples()}
}

// Build executes the full sweep grid of the preset plus the extension runs
// and returns the assembled report. Wall-clock duration depends on the
// host; everything recorded in the result does not.
func Build(o Options) *Report {
	specs := exp.Specs()
	r := &Report{
		Preset: o.Preset(),
		Seed:   o.seed(),
		Grid:   Grid(specs, o.Modes(), o.Short),
		Specs:  specs,
	}
	for _, nm := range o.Modes() {
		r.Modes = append(r.Modes, nm.Name)
	}
	for _, s := range specs {
		xs := s.Xs
		if o.Short {
			xs = ShortXs(s)
		}
		start := time.Now()
		r.Figures = append(r.Figures, s.RunXs(o.ConfigFor(s), xs))
		r.Behaviour = append(r.Behaviour, behaviourFor(o, s, xs))
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "%s: %d points × %d modes in %v\n",
				s.Name, len(xs), len(o.Modes()), time.Since(start).Round(time.Millisecond))
		}
	}
	start := time.Now()
	r.Ext = runExtensions(o)
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, "extensions: %v\n", time.Since(start).Round(time.Millisecond))
	}
	return r
}

// Extensions are the post-paper subsystem checks woven into RESULTS.md: the
// same base workload run under the §3 hash index, the §4 end-of-stream
// drain, and the §5 sharded runner, so the results document covers the
// repo's extensions next to the paper's figures.
type Extensions struct {
	// Base describes the common workload of all extension rows.
	Base exp.Params `json:"-"`
	// Indexed compares linear-scan against hash-indexed probing per mode
	// (DESIGN.md §3).
	Indexed []IndexedRow `json:"indexed"`
	// Drain runs every mode with the end-of-stream drain and records the
	// delivered finals against REF's (DESIGN.md §4).
	Drain []DrainRow `json:"drain"`
	// Sharded runs JIT across key-partitioned engine replicas
	// (DESIGN.md §5).
	Sharded []ShardRow `json:"sharded"`
	// Hostile runs the scenario suite's mutator stacks (DESIGN.md §8) and
	// records the JIT-vs-REF equivalence per stack.
	Hostile []HostileRow `json:"hostile"`
}

// The extension rows are their own RESULTS.json records: the tags fix the
// keys, the field order the key order.

// IndexedRow is one mode's scan-vs-indexed comparison.
type IndexedRow struct {
	Mode         string `json:"mode"`
	ScanCost     uint64 `json:"scan_cost"`
	IndexedCost  uint64 `json:"indexed_cost"`
	ScanCmp      uint64 `json:"scan_comparisons"`
	IndexedCmp   uint64 `json:"indexed_comparisons"`
	FinalsEqual  bool   `json:"finals_equal"` // identical final-result counts
	FinalResults uint64 `json:"final_results"`
}

// DrainRow is one mode's drained run.
type DrainRow struct {
	Mode         string `json:"mode"`
	FinalResults uint64 `json:"final_results"`
	CostUnits    uint64 `json:"cost_units"`
	Suspended    uint64 `json:"suspended"`
	Resumed      uint64 `json:"resumed"`
}

// ShardRow is one shard-count's run of the extension workload (cost and
// peak memory summed over the replicas).
type ShardRow struct {
	Shards       int     `json:"shards"`
	FinalResults uint64  `json:"final_results"`
	CostUnits    uint64  `json:"cost_units"`
	Routed       uint64  `json:"routed"`
	Broadcasts   uint64  `json:"broadcasts"`
	PeakMemKB    float64 `json:"peak_mem_kb"`
	Fallback     bool    `json:"fallback"`
}

// HostileRow is one hostile-stream scenario's drained REF/JIT pair.
type HostileRow struct {
	Name        string `json:"name"`
	Mutators    string `json:"mutators"`
	REFFinals   uint64 `json:"ref_finals"`
	JITFinals   uint64 `json:"jit_finals"`
	REFCost     uint64 `json:"ref_cost"`
	JITCost     uint64 `json:"jit_cost"`
	LateDropped uint64 `json:"late_dropped"`
	// Equal reports multiset equality of the two delivery logs — the
	// scenario harness's headline contract (DESIGN.md §8).
	Equal bool `json:"multiset_equal"`
}

// extBase is the extension workload: the dense end-of-stream family of
// DESIGN.md §4 at a size that keeps the whole extension section seconds-
// cheap while still delivering final results — a 4-way bushy clique needs
// all six pairwise equalities to hold, so finals only appear at dense
// rates and small domains (λ=3, w=90s, dmax=30 ⇒ ~45 finals over 2.5
// windows). Nonzero finals are what give the drain section teeth: the
// drain-less figure runs above may lose suspended finals at end-of-stream,
// and this section shows the §4 drain recovering every one of them.
func extBase(seed int64) exp.Params {
	return exp.Params{
		Query:   plan.Query{N: 4, Bushy: true, Window: 90 * stream.Second},
		Rate:    3,
		DMax:    30,
		Horizon: 225*stream.Second + 1,
		Seed:    seed,
	}
}

func runExtensions(o Options) Extensions {
	ext := Extensions{Base: extBase(o.seed())}
	modes := []exp.NamedMode{{Name: "JIT", Mode: core.JIT()}, {Name: "REF", Mode: core.REF()}}

	for _, nm := range modes {
		p := ext.Base
		p.Mode = nm.Mode
		scan := p.Run()
		p.Indexed = true
		idx := p.Run()
		ext.Indexed = append(ext.Indexed, IndexedRow{
			Mode:         nm.Name,
			ScanCost:     scan.CostUnits,
			IndexedCost:  idx.CostUnits,
			ScanCmp:      scan.Counters.Comparisons,
			IndexedCmp:   idx.Counters.Comparisons,
			FinalsEqual:  scan.Results == idx.Results,
			FinalResults: idx.Results,
		})
	}

	for _, nm := range exp.AblationModes() {
		p := ext.Base
		p.Mode = nm.Mode
		p.Drain = true
		r := p.Run()
		ext.Drain = append(ext.Drain, DrainRow{
			Mode:         nm.Name,
			FinalResults: r.Results,
			CostUnits:    r.CostUnits,
			Suspended:    r.Counters.Suspended,
			Resumed:      r.Counters.Resumed,
		})
	}

	for _, shards := range []int{1, 2, 4} {
		p := ext.Base
		p.Mode = core.JIT()
		p.Shards = shards
		res := p.RunSharded()
		ext.Sharded = append(ext.Sharded, ShardRow{
			Shards:       shards,
			FinalResults: res.Merged.Results,
			CostUnits:    res.Merged.CostUnits,
			Routed:       res.Routed,
			Broadcasts:   res.Broadcasts,
			PeakMemKB:    res.Merged.PeakMemKB,
			Fallback:     res.Fallback,
		})
	}

	// Hostile scenarios always run at the scenario suite's short sizes:
	// the appendix is an equivalence record, not a performance sweep, and
	// the full-size mutator stacks belong to internal/scenario's nightly
	// matrix.
	hostileBase := scenario.Base(true)
	hostileBase.Seed = o.seed()
	for _, sc := range scenario.Suite(true) {
		ref := sc.Apply(hostileBase)
		ref.Mode = core.REF()
		refRes, refKeys := ref.RunKeys()
		jit := sc.Apply(hostileBase)
		jit.Mode = core.JIT()
		jitRes, jitKeys := jit.RunKeys()
		ext.Hostile = append(ext.Hostile, HostileRow{
			Name:        sc.Name,
			Mutators:    sc.Describe(),
			REFFinals:   refRes.Results,
			JITFinals:   jitRes.Results,
			REFCost:     refRes.CostUnits,
			JITCost:     jitRes.CostUnits,
			LateDropped: jitRes.Counters.LateDropped,
			Equal:       len(scenario.DiffMultisets(scenario.Multiset(jitKeys), scenario.Multiset(refKeys))) == 0,
		})
	}
	return ext
}
