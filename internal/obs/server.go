package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/tcp"
)

// Registry aggregates the tracers of one process — one for a single-engine
// run, one per replica for a sharded run — behind the ops endpoint.
type Registry struct {
	mu  sync.Mutex
	trs []*Tracer
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds tracers (nils are ignored).
func (r *Registry) Register(trs ...*Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range trs {
		if t != nil {
			r.trs = append(r.trs, t)
		}
	}
}

// Tracers returns the registered tracers in registration order.
func (r *Registry) Tracers() []*Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Tracer(nil), r.trs...)
}

// Snapshots returns the last published snapshot of each tracer, skipping
// tracers that have not published yet.
func (r *Registry) Snapshots() []*Snapshot {
	var out []*Snapshot
	for _, t := range r.Tracers() {
		if s := t.Snapshot(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// The ops endpoint is a small HTTP/1.1 responder, not net/http: the GET
// routes below are all it serves, and linking net/http for them doubled the
// size of every binary that can bring the endpoint up (DESIGN.md §9).
// Every response is close-delimited — the body runs to the end of the
// connection — so a request is read once and never kept alive.
//
//	/metrics        Prometheus text exposition (per-shard labels)
//	/trace          NDJSON stream of each tracer's last TraceTail events
//	/healthz        liveness
//	/debug/pprof/   a plain-text index of the profiles below
//	/debug/pprof/cmdline, profile?seconds=N, trace?seconds=N, and every
//	                named profile (heap, goroutine, …; ?debug=N, heap ?gc=1)

// Bounds on the connections (ROADMAP aim 3). At most maxConns are open at
// once; one more is closed unanswered. A request head larger than maxHead
// is refused with 431; one not complete within headTimeout is cut off. A
// client that stops reading is cut off after writeTimeout without progress.
// After the response the connection is half-closed and drained for up to
// lingerTimeout, so unread request bytes do not turn the close into a reset
// that could cost the client the response.
const (
	maxConns      = 64
	maxHead       = 8 << 10
	writeTimeout  = 10 * time.Second
	lingerTimeout = 500 * time.Millisecond
	maxLinger     = 64 << 10
)

// headTimeout is a variable so a test can shorten it; a server reads it
// once, when it starts.
var headTimeout = 5 * time.Second

// Server is a live ops endpoint: the request handler of a tcp.Server.
type Server struct {
	srv      *tcp.Server
	reg      *Registry
	quit     chan struct{} // closed by Close: in-flight profiles stop waiting
	quitOnce sync.Once
}

// Serve binds addr (":9090", "127.0.0.1:0", …) and serves the registry's
// routes until Close or Shutdown.
func Serve(addr string, r *Registry) (*Server, error) {
	lis, err := tcp.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	s := &Server{reg: r, quit: make(chan struct{})}
	s.srv = tcp.Serve(lis, maxConns, headTimeout, s.serve)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.srv.Addr() }

// Close shuts the server down immediately, dropping in-flight requests, and
// returns once their handlers have: a profile in progress is stopped before
// its connection is cut, so the profiler is free when Close returns. It
// returns the listener's close error the first time and nil after.
func (s *Server) Close() error {
	s.quitOnce.Do(func() { close(s.quit) })
	err := s.srv.Close()
	s.srv.Wait()
	return err
}

// Shutdown stops accepting new connections, cuts off those still sending
// their request, and waits for in-flight requests (a scrape mid-read, a
// pprof profile) to finish, up to the context deadline. On deadline it
// degrades to Close and returns the context's error. A repeated Shutdown
// returns nil.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Stop()
	done := make(chan struct{})
	go func() {
		s.srv.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.Close()
		return ctx.Err()
	}
}

// serve answers the one request of connection c. It is marked to be let
// finish from its head to its response, the span Shutdown waits for.
func (s *Server) serve(c *tcp.Conn) {
	method, target, status := readHead(bufio.NewReaderSize(c, maxHead))
	if status == 0 || !s.srv.Keep(c, true) {
		return // cut off, gone, or the server is shutting down
	}
	bw := bufio.NewWriter(deadlineWriter{c})
	rep := &reply{w: bw, head: method == "HEAD", status: 200, ctype: plainText}
	switch {
	case status != 200:
		rep.fail(status, statusText[status])
	case method != "GET" && method != "HEAD":
		rep.fail(405, statusText[405])
	default:
		path, query, _ := strings.Cut(target, "?")
		s.route(rep, path, query)
	}
	rep.send()
	bw.Flush()
	s.srv.Keep(c, false)
	c.CloseWrite()
	c.SetReadDeadline(after(lingerTimeout))
	io.CopyN(io.Discard, c, maxLinger)
}

// readHead reads a request head up to its blank line and returns the
// method, the request target and the status to answer with: 200 for a well
// formed head, 400 for a malformed request line, 431 for a head past
// maxHead, and 0 when the connection failed or timed out first.
func readHead(br *bufio.Reader) (method, target string, status int) {
	n := 0
	for first := true; ; first = false {
		line, err := br.ReadSlice('\n')
		if n += len(line); err == bufio.ErrBufferFull || n > maxHead {
			return "", "", 431
		}
		if err != nil {
			return "", "", 0
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case first:
			status = 400
			if m, rest, ok := strings.Cut(string(line), " "); ok {
				t, proto, ok := strings.Cut(rest, " ")
				if ok && strings.HasPrefix(t, "/") && strings.HasPrefix(proto, "HTTP/1.") {
					method, target, status = m, t, 200
				}
			}
		case len(line) == 0:
			return method, target, status
		}
	}
}

// after is the socket deadline d from now.
func after(d time.Duration) time.Time {
	return time.Now().Add(d) //jitlint:allow wallclock a socket deadline of the ops endpoint; no engine quantity reads it
}

// deadlineWriter gives every write to the connection writeTimeout to make
// progress.
type deadlineWriter struct{ c *tcp.Conn }

func (w deadlineWriter) Write(p []byte) (int, error) {
	w.c.SetWriteDeadline(after(writeTimeout))
	return w.c.Write(p)
}

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	431: "Request Header Fields Too Large",
	500: "Internal Server Error",
}

// reply is one close-delimited response. The status line and headers go out
// with the first body byte, or at the end for an empty body, so a route can
// still pick its status until it writes.
type reply struct {
	w      *bufio.Writer
	head   bool // a HEAD request: headers only
	status int
	ctype  string // the body's content type
	file   string // when set, the body is a download of that name
	sent   bool
}

const plainText = "text/plain; charset=utf-8"

func (r *reply) Write(p []byte) (int, error) {
	r.send()
	if r.head {
		return len(p), nil
	}
	return r.w.Write(p)
}

// send writes the status line and headers once.
func (r *reply) send() {
	if !r.sent {
		r.sent = true
		fmt.Fprintf(r.w, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n", r.status, statusText[r.status], r.ctype)
		if r.file != "" {
			fmt.Fprintf(r.w, "Content-Disposition: attachment; filename=%q\r\n", r.file)
		}
		if r.status == 405 {
			r.w.WriteString("Allow: GET, HEAD\r\n")
		}
		r.w.WriteString("Connection: close\r\n\r\n")
	}
}

// attachment types the body as a binary download named name.
func (r *reply) attachment(name string) { r.ctype, r.file = "application/octet-stream", name }

// fail answers with status and a one-line plain-text body, unless the
// response is already under way.
func (r *reply) fail(status int, msg string) {
	if r.sent {
		return
	}
	r.status, r.ctype, r.file = status, plainText, ""
	fmt.Fprintln(r, msg)
}

// route answers a GET or HEAD of path with the raw query string query.
func (s *Server) route(rep *reply, path, query string) {
	switch path {
	case "/metrics":
		rep.ctype = "text/plain; version=0.0.4; charset=utf-8"
		WriteProm(rep, s.reg.Snapshots())
	case "/trace":
		rep.ctype = "application/x-ndjson"
		enc := json.NewEncoder(rep)
		for _, t := range s.reg.Tracers() {
			rec := t.Recorder()
			if rec == nil {
				continue
			}
			for _, e := range rec.Last(TraceTail) {
				enc.Encode(struct {
					Kind  string `json:"kind"`
					TS    int64  `json:"ts"`
					Op    string `json:"op,omitempty"`
					Shard int    `json:"shard"`
					Value uint64 `json:"value"`
					Aux   int64  `json:"aux,omitempty"`
					Note  string `json:"note,omitempty"`
				}{e.Kind.String(), int64(e.TS), e.Op, e.Shard, e.Value, e.Aux, e.Note})
			}
		}
	case "/healthz":
		fmt.Fprintln(rep, "ok")
	case "/debug/pprof", "/debug/pprof/":
		fmt.Fprint(rep, "/debug/pprof/ serves:\n"+
			"cmdline\tthe command line, NUL-separated\n"+
			"profile?seconds=30\tCPU profile, gzipped protobuf\n"+
			"trace?seconds=1\texecution trace\n")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(rep, "%s\t%d (?debug=1 for text)\n", p.Name(), p.Count())
		}
	default:
		name, ok := strings.CutPrefix(path, "/debug/pprof/")
		if !ok {
			rep.fail(404, statusText[404])
			return
		}
		q, err := url.ParseQuery(query)
		if err != nil {
			rep.fail(400, err.Error())
			return
		}
		s.profile(rep, name, q)
	}
}

// profile answers /debug/pprof/name.
func (s *Server) profile(rep *reply, name string, q url.Values) {
	switch name {
	case "cmdline":
		fmt.Fprint(rep, strings.Join(os.Args, "\x00"))
	case "profile":
		d, ok := seconds(rep, q, 30)
		if !ok {
			return
		}
		rep.attachment("profile")
		if err := pprof.StartCPUProfile(rep); err != nil {
			rep.fail(500, "could not enable CPU profiling: "+err.Error())
			return
		}
		s.sleep(d)
		pprof.StopCPUProfile()
	case "trace":
		d, ok := seconds(rep, q, 1)
		if !ok {
			return
		}
		rep.attachment("trace")
		if err := trace.Start(rep); err != nil {
			rep.fail(500, "could not enable tracing: "+err.Error())
			return
		}
		s.sleep(d)
		trace.Stop()
	default:
		p := pprof.Lookup(name)
		if p == nil {
			rep.fail(404, "unknown profile "+strconv.Quote(name))
			return
		}
		if q.Has("seconds") {
			rep.fail(400, "delta profiles (?seconds=) are not served")
			return
		}
		debug, err := strconv.Atoi(q.Get("debug"))
		if q.Has("debug") && err != nil {
			rep.fail(400, "bad debug value: "+err.Error())
			return
		}
		if name == "heap" && q.Get("gc") != "" && q.Get("gc") != "0" {
			runtime.GC()
		}
		if debug == 0 {
			rep.attachment(name)
		}
		p.WriteTo(rep, debug)
	}
}

// seconds reads the ?seconds= duration of a profile or trace, def when
// absent; on a value that is not positive, or too large for a
// time.Duration, it answers 400 and returns false.
func seconds(rep *reply, q url.Values, def float64) (time.Duration, bool) {
	sec := def
	if v := q.Get("seconds"); v != "" {
		var err error
		if sec, err = strconv.ParseFloat(v, 64); err != nil || !(sec > 0 && sec <= 1<<20) {
			rep.fail(400, "bad seconds value "+strconv.Quote(v))
			return 0, false
		}
	}
	return time.Duration(sec * float64(time.Second)), true
}

// sleep waits for d, or until Close.
func (s *Server) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.quit:
	}
}
