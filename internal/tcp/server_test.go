package tcp

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// greeter is a handler that greets each connection, then reads one line:
// "keep" marks the connection to be let finish, answers "kept" and waits
// for release before it says "done"; anything else is read to its end.
type greeter struct {
	srv     *Server
	release chan struct{}
	done    atomic.Int32 // handlers returned
}

func newGreeter() *greeter { return &greeter{release: make(chan struct{})} }

func (g *greeter) handle(c *Conn) {
	defer g.done.Add(1)
	io.WriteString(c, "hi\n")
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil || line != "keep\n" {
		io.Copy(io.Discard, c)
		return
	}
	if !g.srv.Keep(c, true) {
		return
	}
	io.WriteString(c, "kept\n")
	<-g.release
	io.WriteString(c, "done\n")
}

// start serves g on a fresh loopback listener.
func (g *greeter) start(t *testing.T, maxConns int) *Server {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g.srv = Serve(l, maxConns, time.Minute, g.handle)
	t.Cleanup(func() {
		g.srv.Close()
		g.srv.Wait()
	})
	return g.srv
}

// client is a dialled connection that reads lines with a five-second bound.
type client struct {
	net.Conn
	r *bufio.Reader
}

func dial(t *testing.T, s *Server) *client {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	return &client{c, bufio.NewReader(c)}
}

// expect reads one line and fails unless it is want.
func (c *client) expect(t *testing.T, want string) {
	t.Helper()
	if got, err := c.r.ReadString('\n'); got != want+"\n" {
		t.Fatalf("read %q, %v; want %q", got, err, want)
	}
}

// expectClosed fails unless the server closes c without sending anything.
func (c *client) expectClosed(t *testing.T) {
	t.Helper()
	if got, err := c.r.ReadString('\n'); got != "" || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %q, %v; want the connection closed unanswered", got, err)
	}
}

// waitConns polls until the server holds n connections.
func waitConns(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(s.Conns()) != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the server holds %d connections, want %d", len(s.Conns()), n)
		}
	}
}

// TestServerCap: the connection past the cap is closed unanswered, and once
// one leaves the server greets again.
func TestServerCap(t *testing.T) {
	s := newGreeter().start(t, 2)
	a, b := dial(t, s), dial(t, s)
	a.expect(t, "hi")
	b.expect(t, "hi")
	dial(t, s).expectClosed(t)
	a.Close()
	waitConns(t, s, 1)
	dial(t, s).expect(t, "hi")
}

// TestStopCutsUnmarked: Stop closes the listener and the unmarked
// connections at once, and leaves a marked one to finish; once stopped, no
// connection is marked or unmarked any more.
func TestStopCutsUnmarked(t *testing.T) {
	g := newGreeter()
	s := g.start(t, 8)
	kept, cut := dial(t, s), dial(t, s)
	kept.expect(t, "hi")
	cut.expect(t, "hi")
	io.WriteString(kept, "keep\n")
	kept.expect(t, "kept")
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	cut.expectClosed(t)
	waitConns(t, s, 1)
	for c := range s.Conns() {
		if s.Keep(c, false) || !s.Conns()[c] {
			t.Fatal("Keep changed a mark after Stop")
		}
	}
	if c, err := net.Dial("tcp", s.Addr()); err == nil {
		c.Close()
		t.Fatal("the listener still takes connections after Stop")
	}
	close(g.release)
	kept.expect(t, "done")
	if err := s.Stop(); err != nil {
		t.Fatalf("a repeated Stop = %v, want nil", err)
	}
}

// TestWaitWaitsForHandlers: Wait returns only once every handler has
// returned, not when the listener and the connections are closed.
func TestWaitWaitsForHandlers(t *testing.T) {
	g := newGreeter()
	s := g.start(t, 8)
	const n = 3
	for range n {
		c := dial(t, s)
		c.expect(t, "hi")
		io.WriteString(c, "keep\n")
		c.expect(t, "kept")
	}
	s.Close() // every handler is waiting for release, not on its socket
	waited := make(chan struct{})
	go func() {
		s.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("Wait returned while every handler was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(g.release)
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after the handlers did")
	}
	if got := g.done.Load(); got != n {
		t.Fatalf("Wait returned after %d of %d handlers", got, n)
	}
}

// TestAcceptErrorKeepsServing: an accept failure other than ErrClosed (out
// of descriptors, say) is waited out; the connection behind it is served.
func TestAcceptErrorKeepsServing(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	accept := func() (*Conn, error) {
		if calls.Add(1) <= 3 {
			return nil, syscall.EMFILE
		}
		return l.Accept()
	}
	g := newGreeter()
	g.srv = &Server{lis: l, handle: g.handle, max: 8, head: time.Minute, conns: map[*Conn]bool{}}
	g.srv.wg.Add(1)
	go g.srv.acceptLoop(accept) // as Serve starts it, with the failing accept
	defer func() {
		g.srv.Close()
		g.srv.Wait()
	}()
	dial(t, g.srv).expect(t, "hi")
	if got := calls.Load(); got < 4 {
		t.Fatalf("accept called %d times, want the three failures and then the connection", got)
	}
}
