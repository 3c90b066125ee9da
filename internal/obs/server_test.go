package obs

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime/pprof"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/tcp"
)

func TestRingSinkWraps(t *testing.T) {
	r := NewRingSink(4)
	for i := 0; i < 6; i++ {
		r.Emit(Event{Kind: KindArrival, Value: uint64(i)})
	}
	evs, ok := r.TraceEvents()
	if !ok || len(evs) != 4 {
		t.Fatalf("got %d events, ok=%v", len(evs), ok)
	}
	for i, e := range evs {
		if e.Value != uint64(i+2) {
			t.Fatalf("event %d value=%d, want %d (oldest first)", i, e.Value, i+2)
		}
	}
}

func TestTeeSink(t *testing.T) {
	var c CountingSink
	r := NewRingSink(8)
	tee := TeeSink{&c, r}
	tee.Emit(Event{Kind: KindSuspend})
	if c.Count(KindSuspend) != 1 || c.Total() != 1 {
		t.Error("tee missed the counting branch")
	}
	if evs, ok := tee.TraceEvents(); !ok || len(evs) != 1 {
		t.Error("tee did not find the ring's event source")
	}
}

// TestOpsEndpoint boots the live server on an ephemeral port and checks the
// whole surface: /metrics parses under the promtext grammar with the right
// content type, /trace streams NDJSON, /healthz answers, pprof is mounted.
func TestOpsEndpoint(t *testing.T) {
	ring := NewRingSink(64)
	tr := New(Options{Sink: ring, SampleEvery: 10, Label: "shard0"})
	led := &fakeLedger{}
	tr.Bind(led, nil)
	tr.Advance(1)
	led.totals.Probes = 42
	tr.Arrival(&stream.Tuple{TS: 1, ID: 7})
	tr.Advance(25) // crosses boundaries 10 and 20 → snapshot published
	tr.Finish()

	reg := NewRegistry()
	reg.Register(tr, nil) // nils are skipped
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	samples, err := ParseProm(body)
	if err != nil {
		t.Fatalf("scrape fails promtext grammar: %v\n%s", err, body)
	}
	found := false
	for _, s := range samples {
		if s.Name == "jit_probes_total" && s.Labels["shard"] == "shard0" && s.Value == 42 {
			found = true
		}
	}
	if !found {
		t.Error("jit_probes_total{shard=\"shard0\"} 42 not scraped")
	}

	_, body = get("/trace")
	sc := bufio.NewScanner(strings.NewReader(body))
	lines := 0
	for sc.Scan() {
		var e struct {
			Kind  string `json:"kind"`
			TS    int64  `json:"ts"`
			Shard int    `json:"shard"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Kind != "arrival" {
			t.Errorf("unexpected kind %q", e.Kind)
		}
		lines++
	}
	if lines != 1 {
		t.Errorf("%d trace lines, want 1", lines)
	}

	if _, body = get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("healthz said %q", body)
	}
	get("/debug/pprof/cmdline")
}

// TestServerShutdownGraceful proves Shutdown(ctx) lets a request that is
// still in flight when it starts finish before the server goes away, and
// that the listener is closed for new connections afterwards. The request is
// a one-second CPU profile: Shutdown begins once the server has read it and
// marked it to finish, before a byte of the response is written, so a
// Shutdown that cut every connection would tear it.
func TestServerShutdownGraceful(t *testing.T) {
	srv := serveEmpty(t)
	base := "http://" + srv.Addr()
	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
		if err != nil {
			done <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{status: resp.StatusCode, body: body, err: err}
	}()
	waitConns(t, srv, func(conns map[*tcp.Conn]bool) bool { return conns[anyConn(conns)] })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request got status %d", r.status)
	}
	zr, err := gzip.NewReader(bytes.NewReader(r.body))
	if err == nil {
		_, err = io.ReadAll(zr)
	}
	if err != nil {
		t.Fatalf("in-flight profile is torn: %v", err)
	}

	// After Shutdown returns, the port must refuse new connections.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
	// A second shutdown is a no-op, not a panic.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("repeated shutdown: %v", err)
	}
}

// serveEmpty boots the ops endpoint over an empty registry.
func serveEmpty(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// rawRequest writes req on a fresh connection and returns everything the
// server sends back before it closes the connection.
func rawRequest(t *testing.T, srv *Server, req string) string {
	t.Helper()
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("reading the response to %.40q: %v", req, err)
	}
	return string(out)
}

// TestOpsEndpointRefuses pins the status of every request the endpoint does
// not serve: an unknown path, a method other than GET or HEAD (even with a
// body the server never reads), a malformed request line, an unknown
// profile and a bad profile duration. HEAD answers headers only.
func TestOpsEndpointRefuses(t *testing.T) {
	srv := serveEmpty(t)
	for _, c := range []struct{ req, status string }{
		{"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", "HTTP/1.1 404 "},
		{"GET /debug/pprof/symbol HTTP/1.1\r\n\r\n", "HTTP/1.1 404 "},
		{"GET /debug/pprof/nope HTTP/1.1\r\n\r\n", "HTTP/1.1 404 "},
		{"POST /metrics HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", "HTTP/1.1 405 "},
		{"BREW /healthz HTTP/1.0\r\n\r\n", "HTTP/1.1 405 "},
		{"GET /healthz\r\n\r\n", "HTTP/1.1 400 "},
		{"GET healthz HTTP/1.1\r\n\r\n", "HTTP/1.1 400 "},
		{"GET /debug/pprof/profile?seconds=-1 HTTP/1.1\r\n\r\n", "HTTP/1.1 400 "},
		{"GET /debug/pprof/heap?seconds=5 HTTP/1.1\r\n\r\n", "HTTP/1.1 400 "},
		{"GET /healthz HTTP/1.0\r\n\r\n", "HTTP/1.1 200 "},
	} {
		if got := rawRequest(t, srv, c.req); !strings.HasPrefix(got, c.status) {
			t.Errorf("%q answered %q, want %q", c.req, got, c.status)
		}
	}
	if got := rawRequest(t, srv, "POST / HTTP/1.1\r\n\r\n"); !strings.Contains(got, "\r\nAllow: GET, HEAD\r\n") {
		t.Errorf("405 names no allowed methods: %q", got)
	}
	head := rawRequest(t, srv, "HEAD /healthz HTTP/1.1\r\n\r\n")
	if !strings.HasPrefix(head, "HTTP/1.1 200 ") || !strings.HasSuffix(head, "\r\n\r\n") {
		t.Errorf("HEAD answered %q, want a 200 head and no body", head)
	}
}

// TestOversizeHeadIsRefused sends a head past the cap: the server answers
// 431 without reading it all, and the client still gets that answer rather
// than a reset.
func TestOversizeHeadIsRefused(t *testing.T) {
	srv := serveEmpty(t)
	req := "GET /metrics HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", 4*maxHead) + "\r\n\r\n"
	if got := rawRequest(t, srv, req); !strings.HasPrefix(got, "HTTP/1.1 431 ") {
		t.Fatalf("oversize head answered %.60q, want 431", got)
	}
	line := "GET /" + strings.Repeat("m", 2*maxHead) + " HTTP/1.1\r\n\r\n"
	if got := rawRequest(t, srv, line); !strings.HasPrefix(got, "HTTP/1.1 431 ") {
		t.Fatalf("oversize request line answered %.60q, want 431", got)
	}
}

// stall opens a connection to srv that sends part of a request line and
// nothing more.
func stall(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	io.WriteString(c, "GET /metr")
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	return c
}

// waitConns polls, for up to five seconds, until ok holds of the server's
// open connections.
func waitConns(t *testing.T, srv *Server, ok func(conns map[*tcp.Conn]bool) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if ok(srv.srv.Conns()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the server's connections never reached the awaited state")
		}
	}
}

// TestStalledRequestIsCutOff opens connections that send part of a request
// line and stall. The head deadline cuts one off; Shutdown closes the other
// at once instead of waiting for it.
func TestStalledRequestIsCutOff(t *testing.T) {
	defer func(d time.Duration) { headTimeout = d }(headTimeout)
	headTimeout = 200 * time.Millisecond
	c := stall(t, serveEmpty(t))
	start := time.Now()
	if n, err := c.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("stalled request read %d bytes, %v; want the server to close it", n, err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("stalled request held for %v past a %v head deadline", d, headTimeout)
	}

	headTimeout = time.Minute
	srv := serveEmpty(t)
	c2 := stall(t, srv)
	// Let the server accept it before Shutdown closes the listener.
	waitConns(t, srv, func(conns map[*tcp.Conn]bool) bool { return len(conns) == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start = time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a stalled request: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("a stalled request held Shutdown for %v", d)
	}
	if n, err := c2.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("stalled request survived Shutdown: read %d bytes, %v", n, err)
	}
}

// TestPprofRoutes reads a one-second CPU profile (a gzipped protobuf), a
// heap profile in both encodings, the index, which names every profile, and
// a trace, and asks for a CPU profile while the profiler is busy.
func TestPprofRoutes(t *testing.T) {
	srv := serveEmpty(t)
	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return resp, body
	}
	if _, body := get("/debug/pprof/profile?seconds=1"); len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Errorf("CPU profile is not gzip: %d bytes, % x…", len(body), body[:min(len(body), 4)])
	}
	resp, body := get("/debug/pprof/heap")
	if len(body) == 0 || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Errorf("heap profile: %d bytes of %q", len(body), resp.Header.Get("Content-Type"))
	}
	if _, body := get("/debug/pprof/heap?debug=1&gc=1"); !strings.HasPrefix(string(body), "heap profile:") {
		t.Errorf("text heap profile starts %.40q", body)
	}
	if _, body := get("/debug/pprof/goroutine?debug=2"); !strings.Contains(string(body), "goroutine ") {
		t.Errorf("goroutine dump is %.40q", body)
	}
	_, body = get("/debug/pprof/")
	for _, name := range []string{"cmdline", "profile", "trace", "heap", "goroutine", "allocs"} {
		if !strings.Contains(string(body), "\n"+name) {
			t.Errorf("pprof index does not name %s:\n%s", name, body)
		}
	}
	if _, body := get("/debug/pprof/trace?seconds=0.1"); len(body) == 0 {
		t.Error("empty execution trace")
	}
	// A profile that cannot start answers a plain-text 500, not a download.
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatal(err)
	}
	got := rawRequest(t, srv, "GET /debug/pprof/profile?seconds=1 HTTP/1.1\r\n\r\n")
	pprof.StopCPUProfile()
	if !strings.HasPrefix(got, "HTTP/1.1 500 ") || strings.Count(got, "Content-Type:") != 1 ||
		!strings.Contains(got, "Content-Type: text/plain") || strings.Contains(got, "Content-Disposition") {
		t.Errorf("profile with the profiler busy answered %q", got)
	}
}

// TestCloseStopsAProfile: Close drops an in-flight request at once, even a
// CPU profile still collecting.
func TestCloseStopsAProfile(t *testing.T) {
	srv := serveEmpty(t)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/profile?seconds=60")
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	waitConns(t, srv, func(conns map[*tcp.Conn]bool) bool { return conns[anyConn(conns)] })
	srv.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a 60-second profile running")
	}
	// The profiler is free again.
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("profiler still held after Close: %v", err)
	}
	pprof.StopCPUProfile()
}

// anyConn returns one of conns, nil when there is none.
func anyConn(conns map[*tcp.Conn]bool) *tcp.Conn {
	for c := range conns {
		return c
	}
	return nil
}

// TestConnectionCap fills the server with maxConns stalled connections: one
// more is closed unanswered, and once they are gone the server answers
// again.
func TestConnectionCap(t *testing.T) {
	defer func(d time.Duration) { headTimeout = d }(headTimeout)
	headTimeout = time.Minute
	srv := serveEmpty(t)
	var stalled []net.Conn
	for range maxConns {
		stalled = append(stalled, stall(t, srv))
	}
	waitConns(t, srv, func(conns map[*tcp.Conn]bool) bool { return len(conns) == maxConns })
	// The server, not a deadline, must end the extra connection: the head
	// deadline is a minute away, and the client's own read deadline five
	// seconds.
	extra := stall(t, srv)
	if n, err := extra.Read(make([]byte, 1)); n != 0 || err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("connection past the cap read %d bytes, %v; want it closed unanswered", n, err)
	}
	for _, c := range stalled {
		c.Close()
	}
	waitConns(t, srv, func(conns map[*tcp.Conn]bool) bool { return len(conns) == 0 })
	if got := rawRequest(t, srv, "GET /healthz HTTP/1.1\r\n\r\n"); !strings.HasPrefix(got, "HTTP/1.1 200 ") {
		t.Fatalf("after the stalled connections left, /healthz answered %q", got)
	}
}
