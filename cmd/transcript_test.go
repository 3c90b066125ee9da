// Package cmd_test pins what the five commands print. It builds the real
// binaries and replays a fixed battery of invocations — the verify-skill
// runs, the rejection paths, two figure sweeps and four served sessions —
// against testdata/transcripts.golden, so a refactor of the flag binding,
// the validation rules or the summaries cannot move a byte unnoticed.
//
// Regenerate with `go test ./cmd -run TestTranscripts -update` (non-short,
// so the jitbench entry is recorded too).
package cmd_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/transcripts.golden from the current binaries")

const goldenPath = "testdata/transcripts.golden"

// invocation is one recorded command line. long entries are skipped under
// -short (and their golden sections left unchecked).
type invocation struct {
	bin  string
	args string
	long bool
}

func battery() []invocation {
	var inv []invocation
	// The verify-skill battery: one small workload, every mode, every
	// execution knob that has its own summary line.
	const base = "-n 4 -dmax 20 -window 2 -minutes 6"
	for _, mode := range []string{"jit", "ref", "doe", "bloom"} {
		for _, knobs := range []string{
			"", "-drain", "-drain -shards 4", "-adapt", "-disorder 10",
			"-drain -indexed", "-drain -stats", "-zipf 1.5 -band 2", "-zipf 1.5 -band 2 -minutes 1",
		} {
			inv = append(inv, invocation{
				bin: "jitrun", args: strings.TrimSpace(base + " -mode " + mode + " " + knobs),
				// Skew times band multiplies the result volume: six minutes
				// of it is a minute of CPU per mode, one minute a fraction of
				// a second.
				long: knobs == "-zipf 1.5 -band 2",
			})
		}
	}
	for _, args := range []string{
		// The forced-drain notice, left-deep, bursts, a set decision epoch, a
		// fleet migrating in lockstep (both replicas at t=180206ms, their logs
		// in shard order), left-deep and N=5 ledgers, and the tracing epilogue.
		base + " -shards 2",
		base + " -adapt -adapt-epoch 1",
		base + " -bushy=false -adapt -burst 2 -burst-period 1",
		base + " -mode ref -adapt -adapt-epoch 1 -shards 2 -burst 3 -burst-period 2",
		base + " -mode jit -adapt -adapt-epoch 1 -shards 2 -burst 3 -burst-period 2",
		base + " -drain -drain-horizon 7 -stats -shards 2",
		// Per-operator ledgers of plans with a join-fed origin side.
		base + " -mode jit -bushy=false -drain -stats",
		base + " -mode jit -n 5 -drain -stats",
		base + " -obs-addr 127.0.0.1:0",
		base + " -obs-addr 127.0.0.1:0 -shards 2 -obs-sample 30",
		base + " -trace-out TMP/trace.json",
		base + " -trace-out TMP/trace2.json -shards 2 -obs-sample 30",
		// Rejections.
		"-mode bogus",
		"-drain=false -shards 2",
		"-drain=false -adapt",
		"-adapt-epoch 1",
		"-obs-sample 5",
		"-obs-sample -1 -trace-out TMP/never.json",
		"-obs-sample 0.0004 -trace-out TMP/never.json",
		"-obs-addr 127.0.0.1:99999",
		"-drain-horizon 5",
		"-shards 0",
		"-n 1",
		"-n 65",
		"-rate 0",
		"-window 0",
		"-dmax 0",
		"-minutes 0",
		"-zipf 0.5",
		"-burst 0.5",
		"-burst-period 2",
		"-disorder -1",
		"-band -1",
	} {
		inv = append(inv, invocation{bin: "jitrun", args: args})
	}
	for _, args := range []string{
		"-fig 99", "-fig x", "-size 2", "-size 0", "-scale 0", "-shards 0", "-zipf 1", "-disorder -1",
	} {
		inv = append(inv, invocation{bin: "jitbench", args: args})
	}
	inv = append(inv,
		invocation{bin: "jitbench", args: "-fig 17 -scale 0.001 -size 0.1 -ablation -indexed -shards 2 -seed 3 -disorder 5"},
		invocation{bin: "jitbench", args: "-fig 13 -scale 0.002 -size 0.15", long: true},
	)
	for _, args := range []string{
		"-n 3 -minutes 1",
		"-n 2 -horizon 20s -rate 2 -dmax 5 -zipf 2 -burst 2 -disorder 3 -seed 7",
		"-n 1", "-burst 2 -burst-period 0", "-zipf 0.5",
	} {
		inv = append(inv, invocation{bin: "jitgen", args: args})
	}
	for _, args := range []string{"-seed 0", "-out="} {
		inv = append(inv, invocation{bin: "jitreport", args: args})
	}
	for _, args := range []string{
		"-mode bogus",
		"-policy bogus",
		"-every 1",
		"-dir TMP/d -disorder 5",
		"-obs-sample -1",
		"-obs-sample 0.0004",
		"-band -1",
		"-n 1",
		"-window 0",
		"-addr=",
		"-max-pending -1",
		"-retain -1",
		// Validation refuses an impossible port after every other rule, so
		// this line shows whether a negative -keep got that far.
		"-keep -3 -addr 127.0.0.1:99999",
		"-addr 127.0.0.1:99999",
		"-addr example.com:4640",
		"-obs-addr 127.0.0.1:99999",
		"-keep 3",
		"-obs-sample 5",
		// A refused configuration binds nothing: no ops endpoint is
		// announced before the error.
		"-obs-addr 127.0.0.1:0 -n 1",
	} {
		inv = append(inv, invocation{bin: "jitserver", args: args})
	}
	return inv
}

// servedSessions are jitserver runs that reach the serving state: the test
// feeds each a jitgen trace over TCP and records the wire replies beside the
// process output.
var servedSessions = []string{
	"-n 3 -window 1 -mode ref -indexed -addr 127.0.0.1:0",
	"-n 3 -window 1 -mode jit -addr 127.0.0.1:0 -obs-addr 127.0.0.1:0 -obs-sample 20 -dir TMP/ckpt -every 0.5 -policy kick",
	"-n 3 -window 1 -bushy=false -mode doe -band 1 -disorder 5 -addr 127.0.0.1:0",
	// Same directory as the second session: recovers its final checkpoint,
	// so every re-sent frame is a skipped replay.
	"-n 3 -window 1 -mode jit -addr 127.0.0.1:0 -dir TMP/ckpt -keep 1",
}

// servedTrace is the jitgen invocation whose output every served session is
// fed.
const servedTrace = "-n 3 -minutes 3 -dmax 20 -rate 2"

var masks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`wall=\S+`), "wall=<T>"},
	{regexp.MustCompile(`\(elapsed [^)]*\)`), "(elapsed <T>)"},
	{regexp.MustCompile(` in [0-9.]+(ns|µs|ms|s)\b`), " in <T>"},
	{regexp.MustCompile(`127\.0\.0\.1:[0-9]{1,5}\b`), "127.0.0.1:<PORT>"},
	// jitbench rows: x, then cost / cpu(ms) / mem per mode. cpu is the only
	// float followed by another float.
	{regexp.MustCompile(`( +[0-9]+) +[0-9]+\.[0-9]( +[0-9]+\.[0-9])`), "$1 <CPU>$2"},
}

func mask(s, tmp string) string {
	s = strings.ReplaceAll(s, tmp, "TMP")
	for _, m := range masks {
		s = m.re.ReplaceAllString(s, m.with)
	}
	return s
}

func section(title string, exit int, stdout, stderr, tmp string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "$ %s\nexit %d\n", title, exit)
	for _, part := range []struct{ name, text string }{{"stdout", stdout}, {"stderr", stderr}} {
		if part.text != "" {
			fmt.Fprintf(&b, "--- %s\n%s", part.name, mask(part.text, tmp))
			if !strings.HasSuffix(part.text, "\n") {
				b.WriteString("\n")
			}
		}
	}
	b.WriteString("\n")
	return b.String()
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	t.Fatalf("command did not run: %v", err)
	return -1
}

func run(t *testing.T, bins, tmp string, inv invocation) string {
	t.Helper()
	args := strings.Fields(strings.ReplaceAll(inv.args, "TMP", tmp))
	cmd := exec.Command(filepath.Join(bins, inv.bin), args...)
	cmd.Dir = tmp
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := exitCode(t, cmd.Run())
	out := stdout.String()
	if inv.bin == "jitgen" && code == 0 && strings.Count(out, "\n") > 12 {
		// A trace is hundreds of lines; its head, length and digest pin it.
		lines := strings.SplitAfter(out, "\n")
		out = strings.Join(lines[:10], "") + fmt.Sprintf("... %d lines, sha256 %x\n", len(lines)-1, sha256.Sum256([]byte(out)))
	}
	return section(inv.bin+" "+inv.args, code, out, stderr.String(), tmp)
}

// serve runs one served session: start jitserver, wait for its "serving …
// on ADDR" line, stream a jitgen trace in, and read the acks and (on a second
// connection) the delivery stream's last line.
func serve(t *testing.T, bins, tmp, argline string, trace []byte) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(bins, "jitserver"), strings.Fields(strings.ReplaceAll(argline, "TMP", tmp))...)
	cmd.Dir = tmp
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // no-op once Wait has reaped it
	var addr string
	sc := bufio.NewScanner(errPipe)
	for sc.Scan() {
		stderr.WriteString(sc.Text() + "\n")
		if _, rest, ok := strings.Cut(sc.Text(), " on "); ok && strings.Contains(sc.Text(), "serving") {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("jitserver %s never served:\n%s", argline, stderr.String())
	}
	var wire strings.Builder
	sub := dial(t, addr)
	defer sub.Close()
	fmt.Fprintln(sub, `{"cmd":"subscribe"}`)
	// Read deliveries while ingesting, so a full ring never stalls the run.
	subscribed := make(chan string, 1)
	go func() {
		var n int
		var greeting, first, last string
		for lines := bufio.NewScanner(sub); lines.Scan(); n++ {
			switch n {
			case 0:
				greeting = lines.Text()
			case 1:
				first = lines.Text()
			}
			last = lines.Text()
		}
		subscribed <- fmt.Sprintf("subscribe< %s\nsubscribe< %s\nsubscribe< ... %d lines\nsubscribe< %s\n", greeting, first, n, last)
	}()

	in := dial(t, addr)
	defer in.Close()
	inLines := bufio.NewScanner(in)
	w := bufio.NewWriter(in)
	fmt.Fprintln(w, `{"cmd":"ingest"}`)
	for i, line := range strings.Split(strings.TrimSpace(string(trace)), "\n") {
		f := strings.Split(line, ",")
		fmt.Fprintf(w, `{"id":%d,"source":%d,"ts":%s,"vals":[%s]}`+"\n",
			i+1, strings.Index("ABCDEFGH", f[1]), f[0], strings.Join(f[2:], ","))
	}
	fmt.Fprintln(w, `{"cmd":"eos"}`)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for inLines.Scan() {
		fmt.Fprintf(&wire, "ingest< %s\n", inLines.Text())
	}
	wire.WriteString(<-subscribed)
	for sc.Scan() {
		stderr.WriteString(sc.Text() + "\n")
	}
	code := exitCode(t, cmd.Wait())
	return section("jitserver "+argline+"   # fed jitgen "+servedTrace,
		code, wire.String()+stdout.String(), stderr.String(), tmp)
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(time.Minute)) //nolint:errcheck // a TCP conn accepts deadlines
	return c
}

// splitSections keys a golden file by its "$ command" title lines. Output
// may hold blank lines, so the title prefix is the only separator, and the
// newlines that end a section are trimmed rather than counted.
func splitSections(golden string) map[string]string {
	out := map[string]string{}
	for _, s := range strings.Split("\n"+golden, "\n$ ")[1:] {
		title, _, _ := strings.Cut(s, "\n")
		out["$ "+title] = "$ " + strings.TrimRight(s, "\n")
	}
	return out
}

// statSources stats the module's Go sources. A test that builds or lists
// packages at run time does what the test cache cannot see; it does see the
// files a test stats, so `go test ./cmd` then reruns after any change to
// what the commands are built from.
func statSources(t *testing.T) {
	t.Helper()
	for _, root := range []string{"../go.mod", "../internal", "."} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				_, err = os.Stat(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTranscripts(t *testing.T) {
	statSources(t)
	bins, tmp := t.TempDir(), t.TempDir()
	build := exec.Command("go", "build", "-o", bins+string(filepath.Separator),
		"./jitrun", "./jitbench", "./jitgen", "./jitreport", "./jitserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	var got []string
	for _, inv := range battery() {
		if inv.long && testing.Short() {
			continue
		}
		got = append(got, run(t, bins, tmp, inv))
	}
	trace, err := exec.Command(filepath.Join(bins, "jitgen"), strings.Fields(servedTrace)...).Output()
	if err != nil {
		t.Fatalf("jitgen: %v", err)
	}
	for _, argline := range servedSessions {
		got = append(got, serve(t, bins, tmp, argline, trace))
	}

	if *update {
		if testing.Short() {
			t.Fatal("-update under -short would drop the long entries")
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := splitSections(string(golden))
	for _, g := range got {
		title, _, _ := strings.Cut(g, "\n")
		if w, ok := want[title]; !ok {
			t.Errorf("no golden section for %q", title)
		} else if g = strings.TrimRight(g, "\n"); w != g {
			t.Errorf("transcript drift\n--- want\n%s\n--- got\n%s", w, g)
		}
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("golden has %d sections, the battery %d", len(want), len(got))
	}
}
