package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// runConfig is what one workload run needs besides the workload itself.
type runConfig struct {
	bin    string // the jitserver binary built for this run
	outDir string
	seed   int64
	size   sizing
	trace  bool // also run the in-process layers replay
}

// report is the outcome of one workload run.
type report struct {
	workload  string
	metrics   map[string]float64
	attempted int
	failed    int
	// peak and paced are the per-pass failure breakdowns, for the printout.
	peak, paced failures
	steps       []stepStats
	notes       []string
	selfTimes   map[string]nameTotal // span self times of the traced replay
}

// extraSetups is how many spawn-greet-kill cycles are timed on top of the
// two real incarnations, so setup_s is a median of thirty-one.
const extraSetups = 29

// runWorkload runs one workload end to end: generate the input from the
// seed, compute the oracle, time set-up, run the peak pass and the paced
// pass against fresh server incarnations, check every delivery, and — with
// trace on — replay the peak pass's frames in process for the layer metrics.
func runWorkload(cfg runConfig, w workload) (*report, error) {
	sz := cfg.size
	in, err := w.generate(cfg.seed, sz.frames())
	if err != nil {
		return nil, err
	}
	framesPath := filepath.Join(cfg.outDir, w.name+".frames.ndjson")
	if err := os.WriteFile(framesPath, in.wire, 0o644); err != nil {
		return nil, fmt.Errorf("record frames: %w", err)
	}
	all := oracle(in.cat, in.conj, window, in.tuples)
	rep := &report{workload: w.name, metrics: make(map[string]float64)}
	m := rep.metrics

	ckDir := func(pass string) string {
		d := filepath.Join(cfg.outDir, "ck-"+w.name+"-"+pass)
		os.RemoveAll(d) //nolint:errcheck // jitserver reports a directory it cannot use
		return d
	}
	defer func() {
		for _, pass := range []string{"setup", "peak", "paced"} {
			os.RemoveAll(filepath.Join(cfg.outDir, "ck-"+w.name+"-"+pass)) //nolint:errcheck // best-effort cleanup of benchmark output
		}
	}()

	var setups []float64
	for i := 0; i < extraSetups; i++ {
		d, err := setupOnce(cfg.bin, w.serverFlags(ckDir("setup")))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	expPeak := resultsOfPrefix(all, sz.peak)
	peak, err := runPass(cfg.bin, w.serverFlags(ckDir("peak")), len(expPeak), true, peakSend(in, sz.peak))
	if err != nil {
		return nil, fmt.Errorf("peak pass: %w", err)
	}
	_, rep.peak = verify(peak, sz.peak, expPeak)

	steps := []step{{"warm", w.rateHi, sz.warm}, {"lo", w.rateLo, sz.lo}, {"hi", w.rateHi, sz.hi}}
	expPaced := resultsOfPrefix(all, sz.paced())
	paced, err := runPass(cfg.bin, w.serverFlags(ckDir("paced")), len(expPaced), false, pacedSend(in, steps, preciseSleep))
	if err != nil {
		return nil, fmt.Errorf("paced pass: %w", err)
	}
	delivered, pacedFail := verify(paced, sz.paced(), expPaced)
	rep.paced = pacedFail
	rep.steps = analyzePaced(paced, delivered)
	lo, hi := rep.steps[1], rep.steps[2]

	rep.attempted = sz.peak + len(expPeak) + sz.paced() + len(expPaced)
	rep.failed = rep.peak.total() + rep.paced.total()

	setups = append(setups, peak.setup.Seconds(), paced.setup.Seconds())
	peakWall := peak.eos - peak.first
	fPeak := float64(sz.peak)
	m["setup_s"] = median(setups)
	m["e2e.peak_arrivals_per_s"] = fPeak / peakWall.Seconds()
	m["e2e.cpu_us_per_arrival"] = us(peak.exit.cpu) / fPeak
	m["peak_rss_mb"] = float64(peak.rssKB) / 1024
	m["cost_units_per_arrival"] = float64(peak.exit.cost) / fPeak
	m["e2e.latency_p50_ms_lo"], m["e2e.latency_p95_ms_lo"], m["e2e.latency_p99_ms_lo"] = lo.p50, lo.p95, lo.p99
	m["e2e.latency_p50_ms_hi"], m["e2e.latency_p95_ms_hi"], m["e2e.latency_p99_ms_hi"] = hi.p50, hi.p95, hi.p99
	m["e2e.paced_samples_lo"], m["e2e.paced_samples_hi"] = float64(lo.samples), float64(hi.samples)
	for _, st := range []stepStats{lo, hi} {
		if !st.valid() {
			rep.notes = append(rep.notes, fmt.Sprintf("step %s invalid: generator ran %.2f ms late at p99 with no blocked write to explain it", st.step.name, st.lateP99))
		}
	}

	switch {
	case rep.failed > 0:
	case hi.sustained():
		m["sustained_rate_per_s"] = float64(w.rateHi)
	case lo.sustained():
		m["sustained_rate_per_s"] = float64(w.rateLo)
	}
	m["failed_fraction"] = float64(rep.failed) / float64(rep.attempted)
	m["e2e.peak_pass_s"] = peakWall.Seconds()
	m["serve.paced_cpu_us_per_arrival"] = us(paced.exit.cpu) / float64(sz.paced())
	m["bench.loadgen_late_ms_p99"] = max(lo.lateP99, hi.lateP99)
	m["bench.loadgen_encode_ns_per_frame"] = float64(in.encodeNS) / float64(len(in.tuples))

	if cfg.trace {
		if err := w.layers(in, sz.peak, cfg.seed, cfg.outDir, peak.exit, us(peakWall)/fPeak, rep); err != nil {
			return nil, fmt.Errorf("layers run: %w", err)
		}
	}
	return rep, nil
}
