package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// testParams is the shared server/baseline workload: an N=3 clique dense
// enough to exercise suspension and resumption with a few hundred finals,
// small enough for the per-mode sweep to stay fast.
func testParams(mode core.Mode) (Config, exp.Params) {
	cfg := Config{
		Query: plan.Query{N: 3, Bushy: true, Window: 90 * stream.Second, Mode: mode},
		Addr:  "127.0.0.1:0",
	}
	base := exp.Params{
		Query: cfg.Query,
		Rate:  2, DMax: 18, Horizon: 3 * stream.Minute, Seed: 7,
		Drain: true, KeepResults: true,
	}
	return cfg, base
}

// workload materializes the baseline's arrival trace — the tuples a client
// sends over the wire.
func workload(p exp.Params) []*stream.Tuple {
	cat, _ := predicate.Clique(p.N)
	return source.Generate(cat, source.UniformConfig(p.N, p.Rate, p.DMax, p.Horizon, p.Seed))
}

// client is a test-side protocol connection.
type client struct {
	t    *testing.T
	conn net.Conn
	sc   *bufio.Scanner
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), MaxFrameBytes+1)
	return &client{t: t, conn: conn, sc: sc}
}

func (c *client) close() { c.conn.Close() }

func (c *client) send(v interface{}) {
	c.t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		c.t.Fatalf("marshal: %v", err)
	}
	if _, err := c.conn.Write(append(b, '\n')); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

func (c *client) sendRaw(line string) {
	c.t.Helper()
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

// recv reads one response line into a generic map.
func (c *client) recv() map[string]interface{} {
	c.t.Helper()
	if !c.sc.Scan() {
		c.t.Fatalf("connection closed early (err=%v)", c.sc.Err())
	}
	var m map[string]interface{}
	if err := json.Unmarshal(c.sc.Bytes(), &m); err != nil {
		c.t.Fatalf("bad response line %q: %v", c.sc.Text(), err)
	}
	return m
}

// ingest opens an ingest session and returns the greeting's resume mark. The
// server releases the single-writer slot asynchronously after a disconnect,
// so a reconnect can briefly see "already active" — retry those.
func ingestGreet(t *testing.T, addr string) (*client, uint64) {
	t.Helper()
	for i := 0; ; i++ {
		c := dial(t, addr)
		c.send(Frame{Cmd: "ingest"})
		g := c.recv()
		if g["ok"] == true {
			var resume uint64
			if v, ok := g["resume_id"].(float64); ok {
				resume = uint64(v)
			}
			return c, resume
		}
		c.close()
		if e, _ := g["error"].(string); !strings.Contains(e, "already active") || i >= 500 {
			t.Fatalf("ingest greeting rejected: %v", g)
		}
		time.Sleep(time.Millisecond)
	}
}

func tupleFrame(tp *stream.Tuple) Frame {
	vals := make([]int64, len(tp.Vals))
	for i, v := range tp.Vals {
		vals[i] = int64(v)
	}
	return Frame{ID: tp.ID, Source: int(tp.Source), TS: int64(tp.TS), Vals: vals}
}

// feed streams the whole workload through one ingest session and closes with
// eos.
func feed(t *testing.T, addr string, tuples []*stream.Tuple) {
	t.Helper()
	c, resume := ingestGreet(t, addr)
	defer c.close()
	for _, tp := range tuples {
		_ = resume // the server skips covered IDs itself; send everything
		c.send(tupleFrame(tp))
	}
	c.send(Frame{Cmd: "eos"})
	ack := c.recv()
	if ack["ok"] != true {
		t.Fatalf("eos not acknowledged: %v", ack)
	}
}

// subscription holds one subscriber's full view of the stream.
type subscription struct {
	resumeSeq uint64
	seqs      []uint64
	keys      []string
	delivered uint64 // from the eos line
	errLine   string // non-empty when the stream ended with an error
}

// collect subscribes from the given sequence and reads to end-of-stream.
//
// Callers run collect on its own goroutine, so it must never call t.Fatalf:
// a Fatalf there would runtime.Goexit without delivering the result and the
// test would hang on its channel receive until the package timeout. Every
// failure — including the transport-level ones — comes back in errLine for
// the test goroutine to assert on.
func collect(_ *testing.T, addr string, from uint64) subscription {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return subscription{errLine: fmt.Sprintf("dial %s: %v", addr, err)}
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), MaxFrameBytes+1)
	req, err := json.Marshal(Frame{Cmd: "subscribe", From: from})
	if err != nil {
		return subscription{errLine: fmt.Sprintf("marshal: %v", err)}
	}
	if _, err := conn.Write(append(req, '\n')); err != nil {
		return subscription{errLine: fmt.Sprintf("write: %v", err)}
	}
	read := func() (map[string]interface{}, error) {
		if !sc.Scan() {
			return nil, fmt.Errorf("connection closed (err=%v)", sc.Err())
		}
		var m map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return nil, fmt.Errorf("bad response line %q: %v", sc.Text(), err)
		}
		return m, nil
	}
	g, err := read()
	if err != nil {
		return subscription{errLine: err.Error()}
	}
	if g["ok"] != true {
		return subscription{errLine: fmt.Sprint(g["error"])}
	}
	var sub subscription
	if v, ok := g["resume_seq"].(float64); ok {
		sub.resumeSeq = uint64(v)
	}
	for {
		m, err := read()
		if err != nil {
			sub.errLine = fmt.Sprintf("stream ended without eos or error: %v", err)
			return sub
		}
		if e, ok := m["error"]; ok {
			sub.errLine = fmt.Sprint(e)
			return sub
		}
		if m["eos"] == true {
			sub.delivered = uint64(m["delivered"].(float64))
			return sub
		}
		sub.seqs = append(sub.seqs, uint64(m["seq"].(float64)))
		sub.keys = append(sub.keys, m["key"].(string))
	}
}

// TestServeMatchesEngine pins the tentpole's baseline property: a network
// round-trip through the server delivers exactly the sequence the in-process
// engine run delivers, in order, in every mode.
func TestServeMatchesEngine(t *testing.T) {
	for _, nm := range exp.AblationModes() {
		nm := nm
		t.Run(nm.Name, func(t *testing.T) {
			t.Parallel()
			cfg, base := testParams(nm.Mode)
			res, want := base.RunKeys()
			if res.Results == 0 {
				t.Fatalf("degenerate baseline: no finals")
			}
			s, err := Open(cfg)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer s.Shutdown()
			done := make(chan subscription, 1)
			go func() { done <- collect(t, s.Addr(), 0) }()
			feed(t, s.Addr(), workload(base))
			sub := <-done
			if sub.errLine != "" {
				t.Fatalf("subscriber error: %s", sub.errLine)
			}
			sres, err := s.Wait()
			if err != nil {
				t.Fatalf("wait: %v", err)
			}
			if sres.Results != res.Results {
				t.Fatalf("server delivered %d finals, engine %d", sres.Results, res.Results)
			}
			if len(sub.keys) != len(want) {
				t.Fatalf("subscriber saw %d deliveries, want %d", len(sub.keys), len(want))
			}
			for i := range want {
				if sub.keys[i] != want[i] {
					t.Fatalf("delivery %d: got %s want %s", i, sub.keys[i], want[i])
				}
			}
			for i, q := range sub.seqs {
				if q != uint64(i+1) {
					t.Fatalf("delivery %d has seq %d, want %d", i, q, i+1)
				}
			}
			if sub.delivered != uint64(len(want)) {
				t.Fatalf("eos line reports %d delivered, want %d", sub.delivered, len(want))
			}
			if sres.OrderViolations != 0 {
				t.Fatalf("order violations: %d", sres.OrderViolations)
			}
		})
	}
}

// TestEOSAckSurvivesShutdown runs many short ingest sessions to eos against
// servers whose owner shuts down the moment the run ends (as cmd/jitserver
// does): the {"ok":true,"ingested":N} ack must arrive every time, never
// losing the race against Shutdown closing the ingest connection.
func TestEOSAckSurvivesShutdown(t *testing.T) {
	cfg, base := testParams(core.REF())
	tuples := workload(base)[:5]
	for i := 0; i < 60; i++ {
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		stopped := make(chan struct{})
		go func() {
			s.Wait() //nolint:errcheck // only the end of the run matters here
			s.Shutdown()
			close(stopped)
		}()
		c, _ := ingestGreet(t, s.Addr())
		for _, tp := range tuples {
			c.send(tupleFrame(tp))
		}
		c.send(Frame{Cmd: "eos"})
		if ack := c.recv(); ack["ok"] != true || ack["ingested"] != float64(len(tuples)) {
			t.Fatalf("session %d: eos ack %v, want ok with ingested=%d", i, ack, len(tuples))
		}
		c.close()
		<-stopped
	}
}

// TestRejectedFramesDoNotPerturbRun interleaves every rejection class with
// valid traffic — each rejection kills its connection, the client reconnects
// and re-sends (the server skips covered IDs) — and requires the delivered
// sequence to be identical to an unmolested run's.
func TestRejectedFramesDoNotPerturbRun(t *testing.T) {
	cfg, base := testParams(core.JIT())
	_, want := base.RunKeys()
	tuples := workload(base)
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown()
	done := make(chan subscription, 1)
	go func() { done <- collect(t, s.Addr(), 0) }()

	half := len(tuples) / 2
	poisons := []struct {
		name    string
		send    func(c *client, last *stream.Tuple)
		wantErr string
	}{
		// dup-id must run on the first session: there the prefix was genuinely
		// admitted, so re-sending the last ID is a duplicate. On a reconnected
		// session the same frame is ≤ the resume mark and is silently skipped —
		// correct resume behavior, but no error line.
		{"dup-id", func(c *client, last *stream.Tuple) {
			f := tupleFrame(last)
			f.ID = last.ID // equal to the session's lastID: a duplicate
			c.send(f)
		}, "duplicate"},
		{"malformed", func(c *client, _ *stream.Tuple) { c.sendRaw("{not json") }, "malformed"},
		{"unknown-field", func(c *client, _ *stream.Tuple) { c.sendRaw(`{"id":999999,"sorce":0,"ts":1,"vals":[1]}`) }, "malformed"},
		{"trailing", func(c *client, _ *stream.Tuple) { c.sendRaw(`{"cmd":"eos"} {"cmd":"eos"}`) }, "malformed"},
		{"unknown-source", func(c *client, last *stream.Tuple) {
			c.send(Frame{ID: last.ID + 1, Source: 99, TS: int64(last.TS), Vals: []int64{1}})
		}, "unknown source"},
		{"bad-arity", func(c *client, last *stream.Tuple) {
			c.send(Frame{ID: last.ID + 1, Source: 0, TS: int64(last.TS), Vals: []int64{1, 2, 3, 4, 5}})
		}, "value count"},
		{"time-regress", func(c *client, last *stream.Tuple) {
			f := tupleFrame(last)
			f.ID, f.TS = last.ID+1, int64(last.TS)-1000
			c.send(f)
		}, "regression"},
	}

	// First half, then one poison per reconnect round, re-sending the prefix
	// each time (covered IDs are skipped server-side).
	c, _ := ingestGreet(t, s.Addr())
	for _, tp := range tuples[:half] {
		c.send(tupleFrame(tp))
	}
	last := tuples[half-1]
	for _, p := range poisons {
		p.send(c, last)
		m := c.recv()
		e, ok := m["error"].(string)
		if !ok {
			t.Fatalf("%s: expected error line, got %v", p.name, m)
		}
		if !strings.Contains(e, p.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", p.name, e, p.wantErr)
		}
		c.close()
		// The server's one session outlives the dropped connection: the next
		// writer is greeted with — and IngestHWM reports — the last admitted ID.
		var resume uint64
		c, resume = ingestGreet(t, s.Addr())
		if resume != last.ID || s.IngestHWM() != last.ID {
			t.Fatalf("%s: reconnect resumes at %d (IngestHWM %d), last admitted ID is %d", p.name, resume, s.IngestHWM(), last.ID)
		}
		for _, tp := range tuples[:half] {
			c.send(tupleFrame(tp))
		}
	}
	for _, tp := range tuples[half:] {
		c.send(tupleFrame(tp))
	}
	c.send(Frame{Cmd: "eos"})
	if ack := c.recv(); ack["ok"] != true {
		t.Fatalf("eos not acknowledged: %v", ack)
	}
	c.close()

	sub := <-done
	if sub.errLine != "" {
		t.Fatalf("subscriber error: %s", sub.errLine)
	}
	if len(sub.keys) != len(want) {
		t.Fatalf("poisoned run delivered %d, clean run %d", len(sub.keys), len(want))
	}
	for i := range want {
		if sub.keys[i] != want[i] {
			t.Fatalf("delivery %d: got %s want %s", i, sub.keys[i], want[i])
		}
	}
	if _, err := s.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	st := s.Stats()
	if st.Skipped == 0 {
		t.Fatalf("expected skipped resume replays, got none")
	}
	// No checkpoint directory, so nothing can ever be replayed: the run
	// reached eos without a dedup gate or a delivered-key map.
	if s.out.gate != nil || st.ReplayDups != 0 {
		t.Fatalf("server without Dir spliced a dedup gate (%v) or absorbed %d dups", s.out.gate != nil, st.ReplayDups)
	}
	if got := s.IngestHWM(); got != tuples[len(tuples)-1].ID {
		t.Fatalf("IngestHWM %d at eos, last admitted ID is %d", got, tuples[len(tuples)-1].ID)
	}
}

// TestTimeRange feeds a 3-clique three matching tuples at the top of the
// engine's time range, in every mode, after timestamps beyond it on each side
// were refused: the frames outside never reach the engine, and the ones at
// its edge still form their one final. Admitted, three tuples near MaxInt64
// overflow the window arithmetic and form no final in any mode, and three at
// MinInt64 leave the served run unable to reach end of stream.
func TestTimeRange(t *testing.T) {
	for _, nm := range exp.AblationModes() {
		t.Run(nm.Name, func(t *testing.T) {
			cfg := Config{Query: plan.Query{N: 3, Bushy: true, Window: stream.Minute, Mode: nm.Mode}, Addr: "127.0.0.1:0"}
			s, err := Open(cfg)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer s.Shutdown()
			for _, ts := range []int64{math.MaxInt64 - 10, int64(stream.MaxTime) + 1, -1, math.MinInt64} {
				c, _ := ingestGreet(t, s.Addr())
				c.send(Frame{ID: 1, Source: 0, TS: ts, Vals: []int64{1, 1}})
				c.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // an admitted frame gets no reply
				e, _ := c.recv()["error"].(string)
				c.close()
				if !strings.Contains(e, "time range") {
					t.Fatalf("ts %d: got %q, want a time-range rejection", ts, e)
				}
			}
			c, _ := ingestGreet(t, s.Addr())
			defer c.close()
			for i := int64(0); i < 3; i++ {
				c.send(Frame{ID: uint64(i + 1), Source: int(i), TS: int64(stream.MaxTime) - 2 + i, Vals: []int64{1, 1}})
			}
			c.send(Frame{Cmd: "eos"})
			if ack := c.recv(); ack["ok"] != true || ack["ingested"] != float64(3) {
				t.Fatalf("eos ack %v, want ok with ingested=3", ack)
			}
			res, err := s.Wait()
			if err != nil {
				t.Fatalf("wait: %v", err)
			}
			if res.Results != 1 {
				t.Fatalf("delivered %d finals at the edge of the time range, want 1", res.Results)
			}
		})
	}
}

// TestSecondIngestRejected pins single-writer admission.
func TestSecondIngestRejected(t *testing.T) {
	cfg, base := testParams(core.REF())
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown()
	c1, _ := ingestGreet(t, s.Addr())
	defer c1.close()
	// A subscriber does not occupy the ingest slot.
	c2 := dial(t, s.Addr())
	defer c2.close()
	c2.send(Frame{Cmd: "subscribe"})
	g := c2.recv()
	if g["ok"] != true {
		t.Fatalf("subscribe rejected: %v", g)
	}
	c3 := dial(t, s.Addr())
	defer c3.close()
	c3.send(Frame{Cmd: "ingest"})
	m := c3.recv()
	if e, _ := m["error"].(string); !strings.Contains(e, "already active") {
		t.Fatalf("second ingest not rejected: %v", m)
	}
	// Releasing the first session admits a new writer.
	c1.close()
	var admitted bool
	for i := 0; i < 100; i++ {
		c4 := dial(t, s.Addr())
		c4.send(Frame{Cmd: "ingest"})
		m := c4.recv()
		ok := m["ok"] == true
		c4.close()
		if ok {
			admitted = true
			break
		}
	}
	if !admitted {
		t.Fatalf("ingest slot never released after disconnect")
	}
	_ = base
}

// TestShutdownDrainsWithoutEOS: closing the server mid-stream drains what was
// ingested and delivers it, exactly like an eos.
func TestShutdownDrainsWithoutEOS(t *testing.T) {
	cfg, base := testParams(core.JIT())
	tuples := workload(base)
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	done := make(chan subscription, 1)
	go func() { done <- collect(t, s.Addr(), 0) }()
	c, _ := ingestGreet(t, s.Addr())
	for _, tp := range tuples {
		c.send(tupleFrame(tp))
	}
	// No eos. Wait until the server has admitted the full stream (Shutdown
	// kicks the ingest socket, so anything still in flight there would be
	// dropped — legal, but this test wants the full drain).
	last := tuples[len(tuples)-1].ID
	for s.IngestHWM() != last {
		time.Sleep(time.Millisecond)
	}
	s.Shutdown()
	c.close()
	sub := <-done
	if sub.errLine != "" {
		t.Fatalf("subscriber error after shutdown: %s", sub.errLine)
	}
	res, err := s.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	_, want := base.RunKeys()
	if res.Results != uint64(len(want)) {
		t.Fatalf("shutdown drain delivered %d, want %d", res.Results, len(want))
	}
}

// TestSubscribeResume: a subscriber joining with from=N sees exactly the
// suffix after N, and one joining beyond the end is clamped.
func TestSubscribeResume(t *testing.T) {
	cfg, base := testParams(core.JIT())
	_, want := base.RunKeys()
	if len(want) < 10 {
		t.Fatalf("workload too sparse for a resume test (%d finals)", len(want))
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown()
	feed(t, s.Addr(), workload(base))
	if _, err := s.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	from := uint64(len(want) / 2)
	sub := collect(t, s.Addr(), from)
	if sub.errLine != "" {
		t.Fatalf("resume subscriber error: %s", sub.errLine)
	}
	if len(sub.keys) != len(want)-int(from) {
		t.Fatalf("resume from %d saw %d deliveries, want %d", from, len(sub.keys), len(want)-int(from))
	}
	for i, k := range sub.keys {
		if k != want[int(from)+i] {
			t.Fatalf("resumed delivery %d: got %s want %s", i, k, want[int(from)+i])
		}
	}
}

// TestConfigValidate pins Config.Validate: the baseline passes and every
// rejected configuration names what is wrong with it.
func TestConfigValidate(t *testing.T) {
	ok, _ := testParams(core.JIT())
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"one source", func(c *Config) { c.N = 1 }, "sources"},
		{"more sources than a source set holds", func(c *Config) { c.N = stream.MaxSources + 1 }, "at most 64 sources"},
		{"zero window", func(c *Config) { c.Window = 0 }, "window"},
		{"no address", func(c *Config) { c.Addr = "" }, "address"},
		{"host name address", func(c *Config) { c.Addr = "example.com:4640" }, "not an IP address or localhost"},
		{"port out of range", func(c *Config) { c.Addr = "127.0.0.1:99999" }, "port"},
		{"address without a port", func(c *Config) { c.Addr = "127.0.0.1" }, "missing port"},
		{"negative band", func(c *Config) { c.Band = -1 }, "band"},
		{"negative disorder", func(c *Config) { c.Disorder = -1 }, "disorder"},
		{"window reaching no-deadline", func(c *Config) { c.Window = core.NoDeadline - stream.MaxTime }, "time range"},
		{"window plus disorder reaching no-deadline", func(c *Config) { c.Window, c.Disorder = core.NoDeadline/2, core.NoDeadline/2 }, "time range"},
		{"disorder with dir", func(c *Config) { c.Dir, c.Disorder = "d", 1 }, "in-order"},
		{"negative interval", func(c *Config) { c.Dir, c.Every = "d", -1 }, "interval"},
		{"interval without dir", func(c *Config) { c.Every = 1 }, "no checkpoint dir"},
		{"negative keep", func(c *Config) { c.Dir, c.Keep = "d", -3 }, "retention cannot be negative"},
		{"keep without dir", func(c *Config) { c.Keep = 3 }, "retention set but no checkpoint dir"},
		{"negative max pending", func(c *Config) { c.MaxPending = -1 }, "ingest buffer cannot be negative"},
		{"negative retain", func(c *Config) { c.Retain = -1 }, "ring size cannot be negative"},
		{"unknown subscriber policy", func(c *Config) { c.Policy = SubKick + 1 }, "unknown subscriber policy"},
	} {
		c := ok
		tc.mut(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestConfigIdentityPinned pins the string a checkpoint is matched against —
// touching any term turns every checkpoint on disk into a "config mismatch"
// at recovery, so a deliberate format change bumps the version, updates these
// literals and says so in its release note — and the shape of the structs it
// is spelled from, so a field added to or removed from Config, or a core.Mode
// that stops being the detection value alone, cannot pass without a decision.
func TestConfigIdentityPinned(t *testing.T) {
	const decide = "decide whether it belongs in identity()"
	if k := reflect.TypeOf(core.JIT()).Kind(); k != reflect.Int {
		t.Errorf("core.Mode is a %v, identity() spells it as the detection value alone: %s", k, decide)
	}
	names := func(v any) []string {
		var fields []string
		for i, tp := 0, reflect.TypeOf(v); i < tp.NumField(); i++ {
			fields = append(fields, tp.Field(i).Name)
		}
		return fields
	}
	query := []string{"N", "Bushy", "Window", "Mode", "Indexed", "Band"}
	if fields := names(plan.Query{}); !slices.Equal(fields, query) {
		t.Errorf("plan.Query fields are %v, identity() covers %v: %s", fields, query, decide)
	}
	other := []string{"Disorder", "Addr", "Dir", "Every", "Keep", "MaxPending", "Retain", "Policy", "Trace", "killPoint"}
	if fields := names(Config{}); !slices.Equal(fields, append([]string{"Query"}, other...)) {
		t.Errorf("serve.Config fields are %v, identity() covers its Query and leaves out %v: %s", fields, other, decide)
	}
	modes := map[string]string{
		"jit":   "detect=lattice typeII=true generalize=true propagate=true ignoreFeedback=false",
		"ref":   "detect=none typeII=false generalize=false propagate=false ignoreFeedback=false",
		"doe":   "detect=doe typeII=false generalize=false propagate=true ignoreFeedback=false",
		"bloom": "detect=bloom typeII=false generalize=true propagate=true ignoreFeedback=false",
	}
	for name, m := range modes {
		mode, err := core.ParseMode(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			cfg  Config
			want string
		}{
			{Config{Query: plan.Query{N: 4, Bushy: true, Window: stream.Minute, Mode: mode}},
				"jitserve-config/2 n=4 shape=((0 1) (2 3)) window=60000 " + m + " indexed=false band=0"},
			{Config{Query: plan.Query{N: 4, Window: stream.Minute, Mode: mode, Indexed: true, Band: 2}},
				"jitserve-config/2 n=4 shape=(((0 1) 2) 3) window=60000 " + m + " indexed=true band=2"},
		} {
			if got := tc.cfg.identity(); got != tc.want {
				t.Errorf("%s identity drifted:\n got %q\nwant %q", name, got, tc.want)
			}
		}
	}
}
