// Package report is the figure-faithful evaluation harness: it drives the
// internal/exp sweeps over the paper's full parameter grid (Figures 10–17:
// window w, rate λ, source count N, domain bound dmax, bushy and left-deep
// clique plans, REF/JIT/DOE/Bloom modes) and renders the measurements into
// reviewable artifacts:
//
//   - RESULTS.json — the machine-readable record: every grid cell's
//     deterministic counters, cost units and peak memory;
//   - results/figNN.svg — a two-panel (cost, memory) trend plot per figure;
//   - RESULTS.md — the generated results document: per figure, an ASCII
//     trend chart, the measurement table, and a prose comparison against
//     the trends the paper reports, with matches and divergences flagged
//     explicitly. A final section exercises the post-paper extensions
//     (DESIGN.md §3 indexing, §4 drain, §5 sharding) on a common workload.
//
// The harness holds no run description of its own: every cell is an
// exp.Params resolved by exp.Spec.ParamsAt from an exp.Config whose
// Workload overlay carries the preset's seed, the verdicts read
// exp.Point.Shape — the same judgment jitbench prints — and the extension
// rows (IndexedRow, DrainRow, ShardRow, HostileRow) are themselves the
// records RESULTS.json marshals.
//
// Everything the harness emits is deterministic: fixed seeds, the specs'
// figure order and each figure's x order, machine-independent cost units
// instead of wall-clock time.
// Regenerating with the same options reproduces the artifacts byte for
// byte, which is what makes RESULTS.md diffable — the golden test and the
// CI drift gate both regenerate the short preset and fail on any byte of
// difference.
//
// Presets. The short preset (Options.Short, `jitreport -short`) subsets
// each figure to three x-points and shrinks the workloads so the whole
// sweep finishes in about a minute: bushy figures scale windows by 0.3 and
// domains by √0.3 (preserving the demand-rarity ratio λ·w/dmax², whose
// distortion — not the partner count's — is what flips the JIT-vs-REF
// shape at quick sizes; see exp.Config.DomainScale), left-deep figures
// scale both by 0.5 (their small dmax=50 base makes the partner pool the
// binding constraint instead). The full preset runs the paper's whole
// x-grid with unscaled workloads at 2% of the 5-hour horizon and adds the
// DOE and Bloom-JIT ablation modes; CI regenerates it nightly and uploads
// the artifacts.
package report
