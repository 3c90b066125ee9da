package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

// testParams is the shared server/baseline workload: an N=3 clique dense
// enough to exercise suspension and resumption with a few hundred finals,
// small enough for the per-mode sweep to stay fast. The delivery ring is
// bounded to four deliveries, so every served test runs with fewer ring
// slots than finals under the default SubBlock policy: a subscriber that
// wants seq 1 must attach before ingest starts (serveRun), or it lags.
func testParams(mode core.Mode) (Config, exp.Params) {
	cfg := Config{
		Query:  plan.Query{N: 3, Bushy: true, Window: 90 * stream.Second, Mode: mode},
		Addr:   "127.0.0.1:0",
		Retain: 4,
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

// client is a test-side protocol connection. Its methods return errors
// rather than fail the test, so it serves background goroutines, where
// t.Fatal must not run, as well as the test's own.
type client struct {
	conn net.Conn
	sc   *bufio.Scanner
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), MaxFrameBytes+1)
	return &client{conn: conn, sc: sc}, nil
}

func (c *client) close() { c.conn.Close() }

func (c *client) sendRaw(line string) error {
	_, err := c.conn.Write([]byte(line + "\n"))
	return err
}

func (c *client) send(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.sendRaw(string(b))
}

// recv reads one response line into a generic map.
func (c *client) recv() (map[string]any, error) {
	if !c.sc.Scan() {
		return nil, fmt.Errorf("connection closed (err=%v)", c.sc.Err())
	}
	var m map[string]any
	if err := json.Unmarshal(c.sc.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("bad response line %q: %v", c.sc.Text(), err)
	}
	return m, nil
}

// ask sends v and reads the line that answers it.
func (c *client) ask(v any) (map[string]any, error) {
	if err := c.send(v); err != nil {
		return nil, err
	}
	return c.recv()
}

// ingest opens an ingest session and returns it with the greeting's resume
// mark. The server releases the single-writer slot asynchronously after a
// disconnect, so a reconnect can briefly see "already active" — retry those.
func ingest(addr string) (*client, uint64, error) {
	for i := 0; ; i++ {
		c, err := dial(addr)
		if err != nil {
			return nil, 0, err
		}
		g, err := c.ask(Frame{Cmd: "ingest"})
		if err == nil && g["ok"] == true {
			resume, _ := g["resume_id"].(float64)
			return c, uint64(resume), nil
		}
		c.close()
		if err != nil {
			return nil, 0, err
		}
		if e, _ := g["error"].(string); !strings.Contains(e, "already active") || i >= 500 {
			return nil, 0, fmt.Errorf("ingest greeting rejected: %v", g)
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

func (c *client) sendTuples(tuples []*stream.Tuple) error {
	for _, tp := range tuples {
		if err := c.send(tupleFrame(tp)); err != nil {
			return err
		}
	}
	return nil
}

// eos ends the stream and returns the count its ack says was ingested.
func (c *client) eos() (uint64, error) {
	ack, err := c.ask(Frame{Cmd: "eos"})
	if err != nil {
		return 0, err
	}
	if ack["ok"] != true {
		return 0, fmt.Errorf("eos not acknowledged: %v", ack)
	}
	n, _ := ack["ingested"].(float64)
	return uint64(n), nil
}

// feed streams tuples through one ingest session and ends it with eos. It
// sends everything: the server skips the IDs its recovery already covers.
func feed(addr string, tuples []*stream.Tuple) error {
	c, _, err := ingest(addr)
	if err != nil {
		return err
	}
	defer c.close()
	if err := c.sendTuples(tuples); err != nil {
		return err
	}
	_, err = c.eos()
	return err
}

// subscription holds one subscriber's full view of the stream.
type subscription struct {
	resumeSeq uint64
	seqs      []uint64
	keys      []string
	delivered uint64 // from the eos line
	err       error  // how the stream ended when not with eos: an error line or a cut connection
}

// subscribe opens a subscriber from delivery seq from and reads its
// greeting, which the server writes once the subscriber holds its place in
// the delivery ring; a rejection is the error.
func subscribe(addr string, from uint64) (*client, uint64, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, 0, err
	}
	g, err := c.ask(Frame{Cmd: "subscribe", From: from})
	if err == nil && g["ok"] != true {
		err = fmt.Errorf("%v", g["error"])
	}
	if err != nil {
		c.close()
		return nil, 0, err
	}
	seq, _ := g["resume_seq"].(float64)
	return c, uint64(seq), nil
}

// read reads a greeted subscriber's deliveries to the end of its stream and
// closes the connection.
func (c *client) read(resumeSeq uint64) subscription {
	defer c.close()
	sub := subscription{resumeSeq: resumeSeq}
	for {
		m, err := c.recv()
		switch {
		case err != nil:
			sub.err = fmt.Errorf("stream ended without eos or error: %v", err)
			return sub
		case m["error"] != nil:
			sub.err = fmt.Errorf("%v", m["error"])
			return sub
		case m["eos"] == true:
			n, _ := m["delivered"].(float64)
			sub.delivered = uint64(n)
			return sub
		}
		seq, _ := m["seq"].(float64)
		key, _ := m["key"].(string)
		sub.seqs = append(sub.seqs, uint64(seq))
		sub.keys = append(sub.keys, key)
	}
}

// collect subscribes from seq from and reads to the end of the stream.
func collect(addr string, from uint64) subscription {
	c, resume, err := subscribe(addr, from)
	if err != nil {
		return subscription{err: err}
	}
	return c.read(resume)
}

// attach subscribes from seq 0 and reads the greeting before it returns; the
// stream is read on its own goroutine and comes out of the channel at its
// end.
func attach(addr string) (<-chan subscription, error) {
	c, resume, err := subscribe(addr, 0)
	if err != nil {
		return nil, err
	}
	done := make(chan subscription, 1)
	go func() { done <- c.read(resume) }()
	return done, nil
}

// servedRun is one server lifetime as a subscriber attached from seq 0 saw it.
type servedRun struct {
	s       *Server // shut down; its Stats, Recovery and IngestHWM stay readable
	sub     subscription
	res     engine.Result
	crashed bool // an armed kill point fired
}

// serveRun opens a server on cfg, attaches a subscriber from seq 0 and reads
// its greeting, and only then lets drive ingest (feedAll: the whole workload
// to an acknowledged eos); then it waits the run out and collects what the
// subscriber read. A subscriber that attached once ingest was under way would
// find seq 1 evicted whenever the run delivers more than cfg.Retain results.
// drive runs on the test goroutine, so it may fail the test. A crash may cut
// ingest and the subscriber short; a clean run must complete both. It
// returns with the server shut down.
func serveRun(t *testing.T, cfg Config, drive func(s *Server) error) servedRun {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown()
	subc, err := attach(s.Addr())
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	driveErr := drive(s)
	r := servedRun{s: s}
	r.res, err = s.Wait()
	r.crashed = errors.Is(err, ErrCrashed)
	if err != nil && !r.crashed {
		t.Fatalf("wait: %v", err)
	}
	r.sub = <-subc
	if !r.crashed && driveErr != nil {
		t.Fatalf("ingest failed on a clean run: %v", driveErr)
	}
	if !r.crashed && r.sub.err != nil {
		t.Fatalf("subscriber failed on a clean run: %v", r.sub.err)
	}
	return r
}

// feedAll is serveRun's plain ingest: every tuple, then eos.
func feedAll(tuples []*stream.Tuple) func(*Server) error {
	return func(s *Server) error { return feed(s.Addr(), tuples) }
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
			r := serveRun(t, cfg, feedAll(workload(base)))
			if r.res.Results != res.Results {
				t.Fatalf("server delivered %d finals, engine %d", r.res.Results, res.Results)
			}
			assertSameSequence(t, "served", r.sub.keys, want)
			for i, q := range r.sub.seqs {
				if q != uint64(i+1) {
					t.Fatalf("delivery %d has seq %d, want %d", i, q, i+1)
				}
			}
			if r.sub.delivered != uint64(len(want)) {
				t.Fatalf("eos line reports %d delivered, want %d", r.sub.delivered, len(want))
			}
			if r.res.OrderViolations != 0 {
				t.Fatalf("order violations: %d", r.res.OrderViolations)
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
		c, _, err := ingest(s.Addr())
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if err := c.sendTuples(tuples); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if n, err := c.eos(); err != nil || n != uint64(len(tuples)) {
			t.Fatalf("session %d: eos ack ingested=%d (%v), want ok with ingested=%d", i, n, err, len(tuples))
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
	half := len(tuples) / 2
	last := tuples[half-1]
	next := func(src int, vals ...int64) Frame {
		return Frame{ID: last.ID + 1, Source: src, TS: int64(last.TS), Vals: vals}
	}
	poisons := []struct {
		name    string
		send    func(c *client) error
		wantErr string
	}{
		// dup-id must run on the first session: there the prefix was genuinely
		// admitted, so re-sending the last ID is a duplicate. On a reconnected
		// session the same frame is ≤ the resume mark and is silently skipped —
		// correct resume behavior, but no error line.
		{"dup-id", func(c *client) error { return c.send(tupleFrame(last)) }, "duplicate"},
		{"malformed", func(c *client) error { return c.sendRaw("{not json") }, "malformed"},
		{"unknown-field", func(c *client) error { return c.sendRaw(`{"id":999999,"sorce":0,"ts":1,"vals":[1]}`) }, "malformed"},
		{"trailing", func(c *client) error { return c.sendRaw(`{"cmd":"eos"} {"cmd":"eos"}`) }, "malformed"},
		{"unknown-source", func(c *client) error { return c.send(next(99, 1)) }, "unknown source"},
		{"bad-arity", func(c *client) error { return c.send(next(0, 1, 2, 3, 4, 5)) }, "value count"},
		{"time-regress", func(c *client) error {
			f := tupleFrame(last)
			f.ID, f.TS = last.ID+1, int64(last.TS)-1000
			return c.send(f)
		}, "regression"},
	}

	// First half, then one poison per reconnect round, re-sending the prefix
	// each time (covered IDs are skipped server-side).
	r := serveRun(t, cfg, func(s *Server) error {
		c, _, err := ingest(s.Addr())
		if err != nil {
			return err
		}
		if err := c.sendTuples(tuples[:half]); err != nil {
			return err
		}
		for _, p := range poisons {
			if err := p.send(c); err != nil {
				return err
			}
			m, err := c.recv()
			if e, _ := m["error"].(string); err != nil || !strings.Contains(e, p.wantErr) {
				t.Fatalf("%s: got %v (%v), want an error line mentioning %q", p.name, m, err, p.wantErr)
			}
			c.close()
			// The server's one session outlives the dropped connection: the next
			// writer is greeted with — and IngestHWM reports — the last admitted ID.
			var resume uint64
			if c, resume, err = ingest(s.Addr()); err != nil {
				return err
			}
			if resume != last.ID || s.IngestHWM() != last.ID {
				t.Fatalf("%s: reconnect resumes at %d (IngestHWM %d), last admitted ID is %d", p.name, resume, s.IngestHWM(), last.ID)
			}
			if err := c.sendTuples(tuples[:half]); err != nil {
				return err
			}
		}
		defer c.close()
		if err := c.sendTuples(tuples[half:]); err != nil {
			return err
		}
		_, err = c.eos()
		return err
	})
	assertSameSequence(t, "poisoned run", r.sub.keys, want)
	st := r.s.Stats()
	if st.Skipped == 0 {
		t.Fatalf("expected skipped resume replays, got none")
	}
	// No checkpoint directory, so nothing can ever be replayed: the run
	// reached eos without a dedup gate or a delivered-key map.
	if r.s.out.gate != nil || st.ReplayDups != 0 {
		t.Fatalf("server without Dir spliced a dedup gate (%v) or absorbed %d dups", r.s.out.gate != nil, st.ReplayDups)
	}
	if got := r.s.IngestHWM(); got != tuples[len(tuples)-1].ID {
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
				c, _, err := ingest(s.Addr())
				if err != nil {
					t.Fatal(err)
				}
				c.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // an admitted frame gets no reply
				m, err := c.ask(Frame{ID: 1, Source: 0, TS: ts, Vals: []int64{1, 1}})
				c.close()
				if e, _ := m["error"].(string); err != nil || !strings.Contains(e, "time range") {
					t.Fatalf("ts %d: got %v (%v), want a time-range rejection", ts, m, err)
				}
			}
			c, _, err := ingest(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			for i := int64(0); i < 3; i++ {
				if err := c.send(Frame{ID: uint64(i + 1), Source: int(i), TS: int64(stream.MaxTime) - 2 + i, Vals: []int64{1, 1}}); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := c.eos(); err != nil || n != 3 {
				t.Fatalf("eos ack ingested=%d (%v), want ok with ingested=3", n, err)
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
	cfg, _ := testParams(core.REF())
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown()
	c1, _, err := ingest(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// A subscriber does not occupy the ingest slot.
	c2, _, err := subscribe(s.Addr(), 0)
	if err != nil {
		t.Fatalf("subscribe rejected: %v", err)
	}
	defer c2.close()
	c3, err := dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.close()
	if m, err := c3.ask(Frame{Cmd: "ingest"}); !strings.Contains(fmt.Sprint(m["error"]), "already active") {
		t.Fatalf("second ingest not rejected: %v (%v)", m, err)
	}
	// Releasing the first session admits a new writer.
	c1.close()
	c4, _, err := ingest(s.Addr())
	if err != nil {
		t.Fatalf("ingest slot never released after disconnect: %v", err)
	}
	c4.close()
}

// TestShutdownDrainsWithoutEOS: closing the server mid-stream drains what was
// ingested and delivers it, exactly like an eos.
func TestShutdownDrainsWithoutEOS(t *testing.T) {
	cfg, base := testParams(core.JIT())
	tuples := workload(base)
	r := serveRun(t, cfg, func(s *Server) error {
		c, _, err := ingest(s.Addr())
		if err != nil {
			return err
		}
		defer c.close()
		if err := c.sendTuples(tuples); err != nil {
			return err
		}
		// No eos. Wait until the server has admitted the full stream (Shutdown
		// kicks the ingest socket, so anything still in flight there would be
		// dropped — legal, but this test wants the full drain).
		for last := tuples[len(tuples)-1].ID; s.IngestHWM() != last; {
			time.Sleep(time.Millisecond)
		}
		s.Shutdown()
		return nil
	})
	_, want := base.RunKeys()
	if r.res.Results != uint64(len(want)) {
		t.Fatalf("shutdown drain delivered %d, want %d", r.res.Results, len(want))
	}
}

// TestSubscribeResume: a subscriber joining with from=N sees exactly the
// suffix after N.
func TestSubscribeResume(t *testing.T) {
	cfg, base := testParams(core.JIT())
	// The subscriber joins the finished run halfway, so the ring must still
	// hold that point: the default bound (zero means 16384), not testParams'.
	cfg.Retain = 0
	_, want := base.RunKeys()
	if len(want) < 10 {
		t.Fatalf("workload too sparse for a resume test (%d finals)", len(want))
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown()
	if err := feed(s.Addr(), workload(base)); err != nil {
		t.Fatalf("feed: %v", err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	from := len(want) / 2
	sub := collect(s.Addr(), uint64(from))
	if sub.err != nil {
		t.Fatalf("resume subscriber error: %v", sub.err)
	}
	assertSameSequence(t, fmt.Sprintf("resume from %d", from), sub.keys, want[from:])
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
