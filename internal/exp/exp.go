// Package exp is the experiment harness reproducing the evaluation of
// Sec. VI: one Spec per figure (Figures 10-17), each sweeping one
// parameter of Table III over the bushy or left-deep plans of Table II and
// executing JIT and REF (optionally DOE and Bloom-JIT) on identical
// workloads.
//
// Params is the only description of a run: the commands, the figure sweeps
// and the report harness each hold one instead of mirroring its fields. It
// executes one way (Params.exec): as a fleet of key-partitioned replicas
// (internal/shard), of which a single engine is the one-replica case; Run,
// RunKeys and RunSharded are views of that one result.
// Config adds the sweep-only knobs and carries what holds at every point of
// a sweep as one Params overlay (Config.Workload); spec.go is the figure
// grid; flags.go declares once every flag two commands share and converts
// the parsed values into a Params; and Params.Validate is the one statement
// of every range and cross-field rule, which the commands surface and do
// not repeat.
//
// Scaling: the paper runs each configuration for 5 hours of application
// time on a 2008-era C++ prototype. Two dimensionless quantities shape the
// figures and are both pinned by the paper's parameter choices: the number
// of join partners each tuple accumulates (λ·w/dmax — how many NPRs exist
// to suppress) and the probability that a suspended sub-tuple is ever
// demanded again (∝ λ·w/dmax² — how often suppression is later undone).
// Scaling w or dmax distorts one of the two, so the faithful harness keeps
// w, λ and dmax at their paper values and scales ONLY the application-time
// horizon: Scale=1 runs the full 5 hours; smaller scales run max(5h·Scale,
// 2.5·w), enough windows for steady-state behaviour while finishing in
// seconds per point. Per-point work is unchanged; only the number of
// processed arrivals shrinks, so the figures' shape (who wins, by what
// factor, and the trend across the sweep) is preserved. When the horizon
// floor still costs too much, Config.SizeScale and Config.DomainScale
// shrink windows and domains at a documented distortion: SizeScale alone
// preserves the partner count and inflates rarity; DomainScale=√SizeScale
// preserves rarity and shrinks the partner pool (the short report preset's
// choice for the bushy figures, internal/report).
package exp

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/source"
	"repro/internal/stream"
	"repro/internal/tcp"
)

// Params is one experiment configuration (a single run).
type Params struct {
	N      int
	Bushy  bool
	Window stream.Time
	// Rate is λ, tuples per second per source.
	Rate float64
	// DMax is the value-domain upper bound.
	DMax int64
	// LastStreamFactor multiplies the last stream's domain (the paper's
	// low-selectivity left-deep setup feeds stream D, or C when N=3, with
	// values from [1..10²·dmax]). Zero means no override.
	LastStreamFactor int64
	// Horizon is the application-time length of the run.
	Horizon stream.Time
	Seed    int64
	Mode    core.Mode
	// Indexed runs the plan with hash-indexed join states (DESIGN.md §3).
	// The default (false) reproduces the paper's 2008 prototype, whose
	// states are scanned linearly — the execution model all of Figures
	// 10-17 assume. With indexing on, REF's probe cost collapses to the
	// matching pairs and the paper's JIT-vs-REF cost shape no longer
	// holds; RESULTS.md's extension section records that comparison.
	Indexed bool
	// Drain keeps firing timer deadlines after the last arrival so results
	// suspended past the end of the stream are still delivered (DESIGN.md
	// §4). Off by default: the figure reproductions compare steady-state
	// overhead and stay bit-identical to the paper harness without it.
	Drain bool
	// DrainHorizon caps the drain when non-zero; zero drains to the natural
	// horizon (last arrival + window).
	DrainHorizon stream.Time
	// Shards, when above 1, runs the plan across that many key-partitioned
	// engine replicas (internal/shard, DESIGN.md §5); below 2 the fleet is
	// one engine. The merged result is returned; note that broadcast sources
	// are ingested once per shard, so Arrivals and the work counters include
	// that duplication. Above 1, Drain is forced on (Drains).
	Shards int
	// Adapt runs the engine under adaptive re-optimization (internal/adapt,
	// DESIGN.md §7): the plan may migrate between the bushy and left-deep
	// shapes mid-run on observed feedback. Drain is forced on (Drains). In
	// sharded runs the replicas migrate in lockstep at epoch barriers.
	Adapt bool
	// AdaptEpoch is the decision-epoch length; zero means one window.
	AdaptEpoch stream.Time
	// AdaptLog, when non-nil, receives the re-optimizer's epoch decisions
	// and migration announcements.
	AdaptLog io.Writer
	// Zipf, when > 1, skews every source's value draws from uniform to a
	// Zipf distribution with this exponent over the same domain (rank 1
	// most frequent) — the hostile-stream skew mutator (DESIGN.md §8).
	// Values in (0, 1] are invalid (Go's Zipf sampler needs exponent > 1).
	Zipf float64
	// Burst, when > 1, runs every source on a regime-switching schedule:
	// rate·Burst during the first half of each BurstPeriod cycle, the base
	// rate during the second half.
	Burst float64
	// BurstPeriod is the burst cycle length; zero means one window.
	BurstPeriod stream.Time
	// Disorder, when > 0, delivers the stream out of timestamp order with
	// delays up to this bound, and gives the engine the same bound for its
	// watermark admission discipline — so the run is exactly equivalent to
	// its in-order sort, with late arrivals beyond the bound counted in
	// Counters.LateDropped (DESIGN.md §8).
	Disorder stream.Time
	// Band, when > 0, replaces every equi-join predicate with its band
	// counterpart |l - r| <= Band. Band joins defeat hash keying and
	// key-partitioned sharding: plans fall back to linear probes and
	// broadcast routing (DESIGN.md §8).
	Band stream.Value
	// KeepResults retains every delivered result in the sink so RunKeys can
	// return the delivery keys — the multiset-equivalence hook of the
	// scenario harness (internal/scenario). Costs O(results) memory.
	KeepResults bool
	// ObsAddr is the live ops endpoint address ("-obs-addr"); Validate
	// checks that the listener can take it, and the CLI owns binding it
	// (internal/obs.Serve).
	ObsAddr string
	// TraceFor supplies each replica's observability tracer (DESIGN.md §9):
	// one tracer per replica, a single engine being shard 0. Nil (the
	// default), or a nil return, leaves observation disabled — the
	// zero-overhead path.
	TraceFor func(shard int) *obs.Tracer
}

// Validate rejects configurations the engine would otherwise accept
// silently or fail on obscurely. It is the one statement of every range and
// cross-field rule of a run: the CLI front-ends surface the returned error
// before running anything and re-check none of it by hand.
func (p Params) Validate() error {
	switch {
	case p.Window <= 0:
		return fmt.Errorf("window must be positive (window=%v)", p.Window)
	case p.Shards < 0:
		return fmt.Errorf("shard count cannot be negative (shards=%d)", p.Shards)
	case p.DrainHorizon < 0:
		return fmt.Errorf("drain horizon cannot be negative (%v)", p.DrainHorizon)
	case p.DrainHorizon > 0 && !p.Drains():
		return fmt.Errorf("drain horizon set but the drain is off (enable -drain)")
	case p.AdaptEpoch < 0:
		return fmt.Errorf("adapt epoch cannot be negative (%v)", p.AdaptEpoch)
	case p.AdaptEpoch > 0 && !p.Adapt:
		return fmt.Errorf("-adapt-epoch has no effect without -adapt")
	}
	if p.ObsAddr != "" {
		if _, err := tcp.ParseAddr(p.ObsAddr); err != nil {
			return fmt.Errorf("-obs-addr: %w", err)
		}
	}
	if err := p.ValidateWorkload(); err != nil {
		return err
	}
	return engine.CheckTimeRange(p.Window, p.Disorder)
}

// ValidateWorkload is the part of Validate that concerns the generated
// stream alone — all of it that cmd/jitgen, which emits a trace and has no
// query, can get wrong.
func (p Params) ValidateWorkload() error {
	switch {
	case p.N < 2:
		return fmt.Errorf("need at least 2 sources (N=%d)", p.N)
	case p.N > stream.MaxSources:
		return fmt.Errorf("at most %d sources fit a source set (N=%d)", stream.MaxSources, p.N)
	case p.Rate <= 0:
		return fmt.Errorf("arrival rate must be positive (rate=%g)", p.Rate)
	case p.DMax < 1:
		return fmt.Errorf("value domain must be at least 1 (dmax=%d)", p.DMax)
	case p.Horizon <= 0:
		return fmt.Errorf("horizon must be positive (horizon=%v)", p.Horizon)
	case p.Zipf != 0 && p.Zipf <= 1:
		return fmt.Errorf("zipf exponent must exceed 1 (zipf=%g)", p.Zipf)
	case p.Burst < 0 || (p.Burst > 0 && p.Burst < 1):
		return fmt.Errorf("burst factor must be at least 1 (burst=%g)", p.Burst)
	case p.BurstPeriod < 0:
		return fmt.Errorf("burst period cannot be negative (%v)", p.BurstPeriod)
	case p.BurstPeriod > 0 && p.Burst <= 1:
		return fmt.Errorf("burst period set but the burst factor is off (set -burst > 1)")
	case p.Disorder < 0:
		return fmt.Errorf("disorder bound cannot be negative (%v)", p.Disorder)
	case p.Band < 0:
		return fmt.Errorf("band tolerance cannot be negative (%d)", p.Band)
	}
	return nil
}

// Drains reports whether the run ends with the end-of-stream drain: asked for,
// or forced by sharding (per-shard exact delivery is what makes the shard
// union equal the single-engine multiset, DESIGN.md §5) or by adaptive
// execution (the migration handoff requires exact delivery, §7).
func (p Params) Drains() bool { return p.Drain || p.Shards > 1 || p.Adapt }

// exec is the one way a configuration executes: a fleet of Shards replicas
// (one when Shards is below 2, run inline — internal/shard) over the lazily
// generated workload (source.Stream), so memory stays proportional to
// operator state rather than the arrival count. Run, RunKeys and RunSharded
// are three views of its result.
func (p Params) exec() shard.Result {
	b := p.Plan()
	opts := shard.Options{
		Shards:   p.Shards,
		Engine:   engine.Options{Drain: p.Drains(), Horizon: p.DrainHorizon, Disorder: p.Disorder},
		TraceFor: p.TraceFor,
	}
	if p.Adapt {
		opts.Adapt = &adapt.Config{Epoch: p.AdaptEpoch, Log: p.AdaptLog}
		if p.AdaptEpoch == 0 {
			opts.Adapt.Epoch = p.Window
		}
	}
	return shard.New(b, opts).RunStream(source.Stream(b.Catalog, p.SourceConfig()))
}

// Run executes the configuration and returns the measured results — merged
// over the replicas when Shards is above 1. Note WallTime includes tuple
// generation, which the historical materialize-then-run harness excluded;
// CostUnits — the paper's comparison metric — is unaffected.
func (p Params) Run() engine.Result { return p.exec().Merged }

// RunKeys executes like Run but retains and returns the delivered result
// keys — the canonical per-result identities (stream.Composite.Key) in
// delivery order (the deterministic merge order for sharded runs) — for
// multiset-equivalence comparison across modes, shard counts and mutator
// stacks (internal/scenario, DESIGN.md §8).
func (p Params) RunKeys() (engine.Result, []string) {
	p.KeepResults = true
	s := p.exec()
	return s.Merged, s.ResultKeys()
}

// RunSharded executes like Run and returns the full sharded result — merged
// totals plus per-shard breakdown and routing counts. Drain is forced on
// whatever Shards says, so its one-replica row is the drained baseline of the
// scaling curve (RESULTS.md).
func (p Params) RunSharded() shard.Result {
	p.Drain = true
	return p.exec()
}

// Hostile summarizes the active hostile-stream mutators, or returns "" when
// the run uses the paper's friendly traffic.
func (p Params) Hostile() string {
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

// SourceConfig is the configuration's workload: the paper's uniform clique
// traffic with the hostile-stream mutators (Zipf, Burst, Disorder) applied
// on top. cmd/jitgen emits it as a trace; every run generates from it.
func (p Params) SourceConfig() source.Config {
	cfg := source.UniformConfig(p.N, p.Rate, p.DMax, p.Horizon, p.Seed)
	if p.Zipf > 1 || p.Burst > 1 {
		period := p.BurstPeriod
		if period == 0 {
			period = p.Window
		}
		for i := range cfg.Specs {
			if p.Zipf > 1 {
				cfg.Specs[i].Zipf = p.Zipf
			}
			if p.Burst > 1 {
				cfg.Specs[i].BurstFactor = p.Burst
				cfg.Specs[i].BurstPeriod = period
			}
		}
	}
	cfg.Disorder = p.Disorder
	if p.LastStreamFactor > 0 {
		last := p.N - 1
		spec := cfg.Specs[last]
		spec.DMaxByCol = map[int]int64{}
		for c := 0; c < p.N-1; c++ {
			spec.DMaxByCol[c] = p.DMax * p.LastStreamFactor
		}
		cfg.Specs[last] = spec
	}
	return cfg
}

// Plan wires the configuration's query — the N-source clique under its
// Table II shape, band predicates when Band is set — without running it.
// Every run goes through it; harnesses that drive a plan themselves (the
// checkpoint round-trip test feeds prefixes and snapshots the cut) pair it
// with SourceConfig.
func (p Params) Plan() *plan.Built {
	return plan.Clique(p.N, p.Bushy, p.Band, plan.Options{
		Window: p.Window, Mode: p.Mode, NoStateIndex: !p.Indexed,
		KeepResults: p.KeepResults,
	})
}

// NamedMode pairs a label with an operator mode.
type NamedMode struct {
	Name string
	Mode core.Mode
}

// DefaultModes is the paper's comparison: JIT vs REF.
func DefaultModes() []NamedMode {
	return []NamedMode{{"JIT", core.JIT()}, {"REF", core.REF()}}
}

// AblationModes adds the DOE and Bloom-detection variants.
func AblationModes() []NamedMode {
	return []NamedMode{
		{"JIT", core.JIT()},
		{"REF", core.REF()},
		{"DOE", core.DOE()},
		{"Bloom", core.BloomJIT()},
	}
}

// Config drives a figure run: the sweep-only knobs, plus one Params that
// every point of the sweep starts from.
type Config struct {
	// Scale shrinks the application-time horizon (see package doc).
	Scale float64
	// SizeScale, when in (0,1), scales the window AND dmax together. This
	// preserves the partners-per-tuple ratio λ·w/dmax exactly while
	// weakening demand rarity (λ·w/dmax²) by 1/SizeScale — acceptable down
	// to about 0.3, where suspended tuples still overwhelmingly stay
	// suspended. Full reproductions use SizeScale=1. Zero means 1.
	SizeScale float64
	// DomainScale, when in (0,1], scales dmax independently; SizeScale then
	// scales only the windows. Zero follows SizeScale. Setting DomainScale
	// to √SizeScale preserves the demand-rarity ratio λ·w/dmax² exactly
	// while the partner count λ·w/dmax shrinks by √SizeScale — the scaling
	// the short report preset uses on the bushy figures (internal/report),
	// where distorted rarity, not the partner pool, is what flips the
	// JIT-vs-REF shape at quick sizes.
	DomainScale float64
	Modes       []NamedMode
	// Horizon overrides the default 5-hour (scaled) application time when
	// non-zero.
	Horizon stream.Time
	// Workload is the sweep-wide overlay: Spec.ParamsAt starts every point
	// from it and writes the figure's Table III base, the swept value, the
	// mode, the scaled sizes and the horizon on top, so whatever else it
	// sets — Seed, Indexed, Shards, the hostile-stream mutators of
	// DESIGN.md §8 — holds at every point. Sharded sweeps measure scaling
	// (broadcast duplication inflates the work counters) and hostile sweeps
	// robustness; neither reproduces the paper's figure shapes, so expect
	// CheckShape deviations under them.
	Workload Params
}

func (c Config) sizeScale() float64 {
	if c.SizeScale <= 0 || c.SizeScale > 1 {
		return 1
	}
	return c.SizeScale
}

// sizeW scales a window per SizeScale.
func (c Config) sizeW(w stream.Time) stream.Time {
	return stream.Time(math.Round(float64(w) * c.sizeScale()))
}

// sizeD scales a domain per DomainScale, falling back to SizeScale.
func (c Config) sizeD(d int64) int64 {
	scale := c.sizeScale()
	if c.DomainScale > 0 && c.DomainScale <= 1 {
		scale = c.DomainScale
	}
	s := int64(math.Round(float64(d) * scale))
	if s < 2 {
		s = 2
	}
	return s
}

// horizonFor computes the application-time horizon for a run with the given
// window: the scaled 5-hour horizon, floored at 2.5 windows so every run
// reaches steady state.
func (c Config) horizonFor(w stream.Time) stream.Time {
	if c.Horizon > 0 {
		return c.Horizon
	}
	h := stream.Time(math.Round(float64(5*stream.Hour) * c.Scale))
	if min := w*5/2 + 1; h < min {
		h = min
	}
	return h
}

// Point is one x-position of a figure with the per-mode results.
type Point struct {
	X       float64
	Results map[string]engine.Result
}

// Figure is a reproduced evaluation figure: CPU and memory as a function of
// one swept parameter, for each mode.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Modes  []string
	Points []Point
}

// Render prints the figure in the paper's two-panel structure: CPU cost and
// peak memory per x-value and mode, plus the JIT/REF improvement factors.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(f.ID), f.Title)
	fmt.Fprintf(w, "%-12s", f.XLabel)
	for _, m := range f.Modes {
		fmt.Fprintf(w, " %14s %14s %12s", m+" cost", m+" cpu(ms)", m+" mem(KB)")
	}
	if f.Paired() {
		fmt.Fprintf(w, " %10s %10s", "cost ratio", "mem ratio")
	}
	fmt.Fprintln(w)
	for _, pt := range f.Points {
		fmt.Fprintf(w, "%-12.1f", pt.X)
		for _, m := range f.Modes {
			r := pt.Results[m]
			fmt.Fprintf(w, " %14d %14.1f %12.1f", r.CostUnits, float64(r.WallTime.Microseconds())/1000, r.PeakMemKB)
		}
		if f.Paired() {
			cost, mem := pt.Ratios()
			fmt.Fprintf(w, " %10.2f %10.2f", cost, mem)
		}
		fmt.Fprintln(w)
	}
}

// Paired reports whether the figure ran both JIT and REF — what the ratio
// columns and the shape verdict compare.
func (f *Figure) Paired() bool {
	return slices.Contains(f.Modes, "JIT") && slices.Contains(f.Modes, "REF")
}

// Ratio is a/b, and 0 when there is nothing to divide by.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Ratios returns the point's REF/JIT improvement factors in cost units and
// in peak memory.
func (pt Point) Ratios() (cost, mem float64) {
	jit, ref := pt.Results["JIT"], pt.Results["REF"]
	return Ratio(float64(ref.CostUnits), float64(jit.CostUnits)), Ratio(ref.PeakMemKB, jit.PeakMemKB)
}

// Shape is the reproduction contract of a JIT-vs-REF figure at one point:
// JIT never exceeds REF in cost units or (beyond 2% bookkeeping) in peak
// memory, and both deliver the same number of results.
type Shape struct {
	CostAbove, MemAbove, ResultsDiffer bool
}

// Shape judges the point; jitbench's deviation list and the report's
// verdicts (internal/report) are both renderings of it.
func (pt Point) Shape() Shape {
	jit, ref := pt.Results["JIT"], pt.Results["REF"]
	return Shape{
		CostAbove:     jit.CostUnits > ref.CostUnits,
		MemAbove:      jit.PeakMemKB > ref.PeakMemKB*1.02,
		ResultsDiffer: jit.Results != ref.Results,
	}
}

// CheckShape lists the figure's violations of the Shape contract (empty
// means the shape holds, or the figure did not run both JIT and REF).
func (f *Figure) CheckShape() []string {
	if !f.Paired() {
		return nil
	}
	var bad []string
	for _, pt := range f.Points {
		jit, ref, v := pt.Results["JIT"], pt.Results["REF"], pt.Shape()
		if v.ResultsDiffer {
			bad = append(bad, fmt.Sprintf("%s x=%.1f: result counts differ (JIT %d, REF %d)", f.ID, pt.X, jit.Results, ref.Results))
		}
		if v.CostAbove {
			bad = append(bad, fmt.Sprintf("%s x=%.1f: JIT cost %d > REF %d", f.ID, pt.X, jit.CostUnits, ref.CostUnits))
		}
		if v.MemAbove {
			bad = append(bad, fmt.Sprintf("%s x=%.1f: JIT mem %.1f > REF %.1f", f.ID, pt.X, jit.PeakMemKB, ref.PeakMemKB))
		}
	}
	return bad
}
