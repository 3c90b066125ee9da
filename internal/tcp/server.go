package tcp

import (
	"errors"
	"maps"
	"sync"
	"time"
)

// Server is the connection lifecycle that jitserver's listener and the ops
// endpoint share (DESIGN.md §10, "Connections"): one accept loop, a cap on
// open connections, a deadline on each connection's head, and a registry
// that Stop and Close cut connections from. Each connection runs the
// handler on its own goroutine and is closed when the handler returns.
type Server struct {
	lis    *Listener
	handle func(*Conn)
	max    int
	head   time.Duration
	wg     sync.WaitGroup // the accept loop and every handler

	mu      sync.Mutex
	conns   map[*Conn]bool // every open connection: true if Stop lets it finish
	stopped bool
}

// Serve accepts on l until it is closed and runs handle on each connection,
// with its read deadline head from the accept; a handler that reads on past
// its head clears it. One connection past maxConns is closed unanswered.
func Serve(l *Listener, maxConns int, head time.Duration, handle func(*Conn)) *Server {
	s := &Server{lis: l, handle: handle, max: maxConns, head: head, conns: map[*Conn]bool{}}
	s.wg.Add(1)
	go s.acceptLoop(l.Accept)
	return s
}

// acceptLoop runs until the listener is closed, backing off on any other
// failure (out of descriptors) rather than giving up serving. It takes the
// accept call apart so that a test can make it fail.
func (s *Server) acceptLoop(accept func() (*Conn, error)) {
	defer s.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		c, err := accept()
		if errors.Is(err, ErrClosed) {
			return
		}
		if err != nil {
			time.Sleep(backoff)
			backoff = min(2*backoff, time.Second)
			continue
		}
		backoff = 5 * time.Millisecond
		s.mu.Lock()
		ok := !s.stopped && len(s.conns) < s.max
		if ok {
			s.conns[c] = false
			c.SetReadDeadline(time.Now().Add(s.head))
			s.wg.Add(1)
			go s.run(c)
		}
		s.mu.Unlock()
		if !ok {
			c.Close()
		}
	}
}

// run serves c, then closes it.
func (s *Server) run(c *Conn) {
	defer s.wg.Done()
	s.handle(c)
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// Keep marks c, one of the open connections, to be let finish by Stop
// (keep) or cut by it. It reports false once the server is stopping: c is
// then closed, or about to be, unless it was marked before.
func (s *Server) Keep(c *Conn, keep bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stopped {
		s.conns[c] = keep
	}
	return !s.stopped
}

// Stop closes the listener and every connection not marked to finish. It
// returns the listener's close error the first time and nil after.
func (s *Server) Stop() error { return s.cut(false) }

// Close is Stop that cuts every connection.
func (s *Server) Close() error { return s.cut(true) }

func (s *Server) cut(all bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if !s.stopped {
		s.stopped = true
		err = s.lis.Close()
	}
	for c, keep := range s.conns {
		if all || !keep {
			c.Close()
		}
	}
	return err
}

// Wait returns once the accept loop and every handler have returned.
func (s *Server) Wait() { s.wg.Wait() }

// Addr is the listener's bound address.
func (s *Server) Addr() string { return s.lis.Addr() }

// Conns is a copy of the registry: each open connection, and whether Stop
// lets it finish.
func (s *Server) Conns() map[*Conn]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.conns)
}
