// Command jitperf is the repository's one performance benchmark: it builds
// cmd/jitserver from the working tree, runs named workloads against it as a
// separate process over real TCP — socket in, subscriber out — checks every
// delivery against an independent oracle, and prints every metric by name
// with its unit. See bench/README.md for the metric definitions.
//
//	go run -C bench ./jitperf -seed 1              # all four workloads, end-to-end metrics
//	go run -C bench ./jitperf -seed 1 -trace 1     # plus the per-layer replay and Chrome traces
//	go run -C bench ./jitperf -check               # compare against bench/baseline.json
//
// The last line of standard output is one JSON object (the last workload's):
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same input")
	names := flag.String("workload", "", "comma-separated workload names (default: all)")
	seconds := flag.Int("seconds", refSeconds, "run length the frame counts are sized for")
	trace := flag.Int("trace", 0, "1 adds the in-process layers replay and reports the per-layer metrics")
	out := flag.String("out", "", "output directory for recorded frames, traces and the server binary (default bench/out)")
	check := flag.Bool("check", false, "re-run and compare against bench/baseline.json using BENCHMARK.json's bounds")
	flag.Parse()
	if err := run(*seed, *names, *seconds, *trace == 1, *out, *check); err != nil {
		fmt.Fprintf(os.Stderr, "jitperf: %v\n", err)
		os.Exit(1)
	}
}

func run(seed int64, names string, seconds int, trace bool, out string, check bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	selected := workloads
	if names != "" {
		selected = nil
		for _, n := range strings.Split(names, ",") {
			w, ok := findWorkload(n)
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			selected = append(selected, w)
		}
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return fmt.Errorf("output directory: %w", err)
	}
	bin, err := buildServer(root, out)
	if err != nil {
		return err
	}
	if check {
		return runCheck(root, bin, out, selected)
	}
	printStamp(root, out)
	failed := false
	for _, w := range selected {
		rep, err := runWorkload(runConfig{bin: bin, outDir: out, seed: seed, size: w.size(seconds), trace: trace}, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		ok := printReport(rep, trace)
		failed = failed || !ok
	}
	if failed {
		return fmt.Errorf("a workload failed its checks (see above)")
	}
	return nil
}

// findRoot locates the repository root — the directory holding
// cmd/jitserver — from the working directory: the root itself or bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "jitserver", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/jitserver not found: run from the repository root or from bench/")
}

// buildServer builds cmd/jitserver from the working tree.
func buildServer(root, out string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(out, "jitserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/jitserver")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build jitserver: %w\n%s", err, msg)
	}
	return bin, nil
}

// printReport prints one workload's metrics by name with their units, then
// the driver's JSON line. It reports whether the workload passed.
func printReport(rep *report, trace bool) bool {
	fmt.Printf("\nworkload %s: attempted=%d failed=%d\n", rep.workload, rep.attempted, rep.failed)
	fmt.Printf("  peak pass:  %v\n  paced pass: %v\n", rep.peak, rep.paced)
	for _, s := range rep.steps {
		fmt.Printf("  step %-4s rate=%d/s frames=%d sent=%.0f/s delivered=%.0f/s samples=%d late_p99=%.3fms slow_writes=%d first_third_p50=%.3fms last_third_p50=%.3fms sustained=%t\n",
			s.step.name, s.step.rate, s.step.frames, s.sentRate, s.recvRate, s.samples, s.lateP99, s.slowWrites, s.firstThird, s.lastThird, s.sustained())
	}
	for _, n := range rep.notes {
		fmt.Printf("  note: %s\n", n)
	}
	correct := rep.failed == 0
	fmt.Println("  -- end to end (untraced) --")
	printMetrics(rep, endToEnd)
	fmt.Println("  -- end-to-end diagnostics (no bound) --")
	printMetrics(rep, diagnostics)
	defs := endToEnd
	if trace {
		fmt.Println("  -- per layer --")
		printMetrics(rep, layerMetrics)
		fmt.Println("  -- span self times, traced replay of the first half --")
		printSelfTimes(rep.selfTimes)
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		v := rep.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no spelling for them; a ratio over nothing reads 0
		}
		if !trace && v == 0 {
			// An end-to-end metric is never zero; a zero is a percentile
			// that was refused for lack of samples.
			correct = false
		}
		line.Metrics[d.name] = value{v, d.unit}
	}
	line.Correct = correct
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Printf("%s\n", b)
	return correct
}

func printMetrics(rep *report, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("  %-38s %16.4f %s\n", d.name, rep.metrics[d.name], d.unit)
	}
}
