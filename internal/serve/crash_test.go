package serve

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// ---------------------------------------------------------------------------
// The kill-point harness (the tentpole's headline deliverable): kill the
// server at every checkpoint boundary and at mid-epoch arrival points,
// restart it on the same checkpoint directory, resume ingest past the
// recovered high-water mark, and require the delivered sequence — committed
// prefix plus post-recovery deliveries — to be bit-for-bit identical to an
// uninterrupted run with the same checkpoint cadence, in all four modes.
// ---------------------------------------------------------------------------

// sequenceOf merges what the subscribers of successive server lifetimes
// read into the delivered key sequence, deduping by sequence number (the
// client half of the exactly-once contract). It fails on what exactly-once
// forbids — one sequence number naming two results — and on any hole: the
// numbers must be exactly 1..len.
func sequenceOf(t *testing.T, subs ...subscription) []string {
	t.Helper()
	merged := map[uint64]string{}
	for n, sub := range subs {
		for i, seq := range sub.seqs {
			if prev, ok := merged[seq]; ok && prev != sub.keys[i] {
				t.Fatalf("incarnation %d re-delivered seq %d as %q, previously %q", n, seq, sub.keys[i], prev)
			}
			merged[seq] = sub.keys[i]
		}
	}
	out := make([]string, len(merged))
	for seq, key := range merged {
		if seq == 0 || seq > uint64(len(out)) {
			t.Fatalf("delivery sequence has a hole: %d results, one numbered %d", len(out), seq)
		}
		out[seq-1] = key
	}
	return out
}

func assertSameSequence(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: delivered %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: delivery %d is %s, want %s", label, i+1, got[i], want[i])
		}
	}
}

// durableParams is testParams plus the crash cadence: checkpoints every 30
// app-seconds, several boundaries inside the 3-minute horizon.
func durableParams(mode core.Mode) (Config, exp.Params) {
	cfg, base := testParams(mode)
	cfg.Every = 30 * stream.Second
	return cfg, base
}

// TestCrashRecoveryMatrix is the in-process kill-point matrix: for each mode,
// arm a crash at every checkpoint boundary the uninterrupted baseline writes,
// and at early / quarter / half / three-quarter arrival points (mid-epoch:
// between checkpoint cuts). One crash + one recovery per point.
func TestCrashRecoveryMatrix(t *testing.T) {
	for _, nm := range exp.AblationModes() {
		nm := nm
		t.Run(nm.Name, func(t *testing.T) {
			t.Parallel()
			cfg, base := durableParams(nm.Mode)
			tuples := workload(base)

			// Uninterrupted baseline with the identical checkpoint cadence —
			// the reference the crash-equivalence property is stated against.
			bcfg := cfg
			bcfg.Dir = t.TempDir()
			bl := serveRun(t, bcfg, feedAll(tuples))
			want := sequenceOf(t, bl.sub)
			if len(want) == 0 {
				t.Fatalf("degenerate baseline: no deliveries")
			}
			midCk := bl.s.Stats().Checkpoints - 1 // minus the end-of-run checkpoint
			if midCk < 2 {
				t.Fatalf("cadence too coarse: %d mid-run checkpoints", midCk)
			}

			type killPoint struct {
				name   string
				arm    func(*Config)
				needCk bool // recovery must find a checkpoint
			}
			var points []killPoint
			for k := 1; k <= midCk; k++ {
				k := k
				points = append(points, killPoint{
					name:   fmt.Sprintf("boundary-%d", k),
					arm:    func(c *Config) { c.killPoint = func(_ uint64, saved int) bool { return saved >= k } },
					needCk: true,
				})
			}
			n := uint64(len(tuples))
			for _, p := range []struct {
				name string
				at   uint64
			}{
				{"arrival-first", 1}, // before anything is durable
				{"arrival-quarter", n / 4},
				{"arrival-half", n / 2},
				{"arrival-threequarter", 3 * n / 4},
			} {
				p := p
				points = append(points, killPoint{
					name: p.name,
					arm:  func(c *Config) { c.killPoint = func(id uint64, _ int) bool { return id >= p.at } },
				})
			}

			for _, kp := range points {
				kp := kp
				t.Run(kp.name, func(t *testing.T) {
					dir := t.TempDir()
					armed := cfg
					armed.Dir = dir
					kp.arm(&armed)
					i1 := serveRun(t, armed, feedAll(tuples))
					if !i1.crashed {
						t.Fatalf("armed kill point never fired")
					}
					clean := cfg
					clean.Dir = dir
					i2 := serveRun(t, clean, feedAll(tuples))
					if i2.crashed {
						t.Fatalf("recovery incarnation crashed")
					}
					rec := i2.s.Recovery()
					if kp.needCk {
						if rec == nil {
							t.Fatalf("recovery found no checkpoint after a boundary kill")
						}
						t.Logf("recovered %s: %d rows, %d keys, hwm=%d, delivered=%d in %v",
							filepath.Base(rec.Path), rec.Rows, rec.Keys, rec.IngestHWM, rec.Delivered, rec.Elapsed)
					}
					// The subscribe greeting carries the delivery floor: the
					// committed mark minus the restored ring tail.
					if rec != nil && i2.sub.resumeSeq+uint64(rec.Tail) != rec.Delivered {
						t.Fatalf("subscriber floor %d + tail %d != committed %d", i2.sub.resumeSeq, rec.Tail, rec.Delivered)
					}
					assertSameSequence(t, kp.name, sequenceOf(t, i1.sub, i2.sub), want)
				})
			}
		})
	}
}

// TestCrashChainedAtEveryBoundary crashes ONE lineage at its next checkpoint
// boundary, over and over — crash, recover, crash again one checkpoint later
// — until an incarnation survives to end-of-stream. Every recovery must
// splice seamlessly onto the committed prefix.
func TestCrashChainedAtEveryBoundary(t *testing.T) {
	cfg, base := durableParams(core.JIT())
	tuples := workload(base)

	bcfg := cfg
	bcfg.Dir = t.TempDir()
	want := sequenceOf(t, serveRun(t, bcfg, feedAll(tuples)).sub)

	dir := t.TempDir()
	var subs []subscription
	for i := 0; ; i++ {
		if i >= 25 {
			t.Fatalf("lineage did not converge in 25 incarnations")
		}
		armed := cfg
		armed.Dir = dir
		armed.killPoint = func(_ uint64, saved int) bool { return saved >= 1 } // the next boundary this incarnation reaches
		r := serveRun(t, armed, feedAll(tuples))
		subs = append(subs, r.sub)
		if !r.crashed {
			t.Logf("lineage converged after %d crashes", i)
			break
		}
	}
	if len(subs) < 3 {
		t.Fatalf("cadence produced only %d incarnations; chain too short to mean anything", len(subs))
	}
	assertSameSequence(t, "chained", sequenceOf(t, subs...), want)
}

// ---------------------------------------------------------------------------
// Subprocess SIGKILL variant: the same property with a real kill(2), not a
// panic — the server process dies mid-write with no deferred functions run.
// ---------------------------------------------------------------------------

const (
	helperDirEnv  = "SERVE_CRASH_HELPER_DIR"
	helperAddrEnv = "SERVE_CRASH_HELPER_ADDRFILE"
)

// TestServeCrashHelper is not a test: it is the server subprocess, entered
// only when the parent re-execs the test binary with the env gate set.
func TestServeCrashHelper(t *testing.T) {
	dir := os.Getenv(helperDirEnv)
	if dir == "" {
		t.Skip("helper process entry point; enabled by env only")
	}
	cfg, _ := durableParams(core.JIT())
	cfg.Dir = dir
	s, err := Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper open: %v\n", err)
		os.Exit(2)
	}
	// Publish the bound address atomically; the parent polls for it.
	addrFile := os.Getenv(helperAddrEnv)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(s.Addr()), 0o644); err != nil {
		os.Exit(2)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		os.Exit(2)
	}
	select {} // hold the server until the parent kills the process
}

// spawnHelper starts the server subprocess and waits for its listen address.
func spawnHelper(t *testing.T, dir, addrFile string) *exec.Cmd {
	t.Helper()
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeCrashHelper$")
	cmd.Env = append(os.Environ(), helperDirEnv+"="+dir, helperAddrEnv+"="+addrFile)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn helper: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.Contains(string(b), ":") {
			return cmd
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("helper never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashRecoverySIGKILL kills the server process with SIGKILL after its
// first durable checkpoint, restarts it on the same directory, resumes, and
// requires the assembled delivery sequence to equal the uninterrupted run's.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness skipped in -short")
	}
	cfg, base := durableParams(core.JIT())
	tuples := workload(base)

	// In-process baseline with the identical cadence.
	bcfg := cfg
	bcfg.Dir = t.TempDir()
	want := sequenceOf(t, serveRun(t, bcfg, feedAll(tuples)).sub)

	dir := t.TempDir()
	addrFile := filepath.Join(t.TempDir(), "addr")

	// Incarnation 1: feed most of the stream, wait for a durable checkpoint
	// to exist, then SIGKILL mid-flight. Its subscriber's stream is cut.
	cmd := spawnHelper(t, dir, addrFile)
	addr, _ := os.ReadFile(addrFile)
	sub1, err := attach(string(addr))
	if err != nil {
		t.Fatalf("subscribe to helper: %v", err)
	}
	c1, _, err := ingest(string(addr))
	if err != nil {
		t.Fatalf("ingest to helper: %v", err)
	}
	if err := c1.sendTuples(tuples[:3*len(tuples)/4]); err != nil {
		t.Fatalf("feed helper: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, _ := filepath.Glob(filepath.Join(dir, "ck-*.jck")); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no checkpoint appeared before the kill window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill() // SIGKILL: no shutdown path runs
	cmd.Wait()
	c1.close()
	s1 := <-sub1

	// Incarnation 2: restart on the same directory, attach, re-send
	// everything (the server skips what its checkpoint covers), read to eos.
	cmd = spawnHelper(t, dir, addrFile)
	defer func() { cmd.Process.Kill(); cmd.Wait() }()
	addr, _ = os.ReadFile(addrFile)
	sub2, err := attach(string(addr))
	if err != nil {
		t.Fatalf("subscribe to restarted helper: %v", err)
	}
	if err := feed(string(addr), tuples); err != nil {
		t.Fatalf("resume feed: %v", err)
	}
	s2 := <-sub2
	if s2.err != nil {
		t.Fatalf("resume subscriber: %v", s2.err)
	}
	assertSameSequence(t, "sigkill", sequenceOf(t, s1, s2), want)
	// The hole-free merged sequence above is the restored-tail property at
	// work: deliveries committed by the checkpoint but never read before the
	// SIGKILL came back from the restarted server's re-seeded ring.
	if len(s2.seqs) == 0 {
		t.Fatalf("recovered incarnation delivered nothing")
	}
}

// TestRestoreRejectsMalformedCheckpoint hands Open checkpoints that are
// CRC-valid and match the server's config but hold what no server could have
// written. Each must be refused with an error before the replay or the
// delivery ring sees it: a row the catalog has no feed for would panic the
// replay, and a row of the wrong shape or time, or a tail longer than the
// deliveries it ends at, would be restored as if ingested.
func TestRestoreRejectsMalformedCheckpoint(t *testing.T) {
	cfg, _ := durableParams(core.JIT())
	cat, _ := predicate.Clique(cfg.N)
	vals := func(n int) []stream.Value { return make([]stream.Value, n) }
	row := func(id uint64, src stream.SourceID, ts stream.Time) *stream.Tuple {
		return &stream.Tuple{ID: id, Source: src, TS: ts, Vals: vals(cat.Source(src).NumCols())}
	}
	valid := func() *checkpoint.Checkpoint {
		return &checkpoint.Checkpoint{
			Cut: 20, IngestHWM: 2, Delivered: 1, Config: cfg.identity(),
			Tail: []checkpoint.TailEntry{{Seq: 1, TS: 10, Key: "0:1|1:2"}},
			Rows: []*stream.Tuple{row(1, 0, 10), row(2, 1, 20)},
		}
	}
	for _, tc := range []struct {
		name  string
		edit  func(ck *checkpoint.Checkpoint)
		wrap  error // the sentinel the error must wrap; nil: any error
		clean bool  // the unedited checkpoint: Open must accept it
	}{
		{name: "valid", edit: func(*checkpoint.Checkpoint) {}, clean: true},
		{name: "foreign source", edit: func(ck *checkpoint.Checkpoint) {
			ck.Rows[1] = &stream.Tuple{ID: 2, Source: 9, TS: 20, Vals: vals(2)}
		}, wrap: ErrUnknownSource},
		{name: "arity", edit: func(ck *checkpoint.Checkpoint) { ck.Rows[0].Vals = vals(5) }, wrap: ErrBadArity},
		{name: "negative ts", edit: func(ck *checkpoint.Checkpoint) { ck.Rows[0].TS = -5 }, wrap: ErrTimeRange},
		{name: "rows out of order", edit: func(ck *checkpoint.Checkpoint) { ck.Rows[0].TS = 25; ck.Cut = 30 }, wrap: ErrTimeRange},
		{name: "row past the cut", edit: func(ck *checkpoint.Checkpoint) { ck.Cut = 15 }, wrap: ErrTimeRange},
		{name: "row never ingested", edit: func(ck *checkpoint.Checkpoint) { ck.IngestHWM = 1 }},
		{name: "tail longer than deliveries", edit: func(ck *checkpoint.Checkpoint) {
			ck.Tail = append([]checkpoint.TailEntry{{Seq: 0, TS: 5, Key: "0:0|1:0"}}, ck.Tail...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := checkpoint.OpenStore(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			ck := valid()
			tc.edit(ck)
			if _, err := st.Save(ck); err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.Dir = dir
			s, err := Open(c)
			if tc.clean {
				if err != nil {
					t.Fatalf("well-formed checkpoint refused: %v", err)
				}
				s.Shutdown()
				return
			}
			if err == nil {
				s.Shutdown()
				t.Fatal("malformed checkpoint restored")
			}
			if tc.wrap != nil && !errors.Is(err, tc.wrap) {
				t.Fatalf("error %v does not wrap %v", err, tc.wrap)
			}
		})
	}
}
