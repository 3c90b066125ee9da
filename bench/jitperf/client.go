package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The client manager: spawn a jitserver process, dial its two connections,
// read the greetings, and reap it. The load generator is this one process
// with exactly one ingest and one subscriber connection.

// server is one spawned jitserver incarnation.
type server struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time // just before exec

	stdout bytes.Buffer
	mu     sync.Mutex
	stderr bytes.Buffer
	errEOF chan struct{} // closed when the stderr pipe has been drained
}

var servingLine = regexp.MustCompile(`jitserver: serving .* on (\S+)`)

// spawn starts bin with the given flags and waits for the line that names
// the bound address.
func spawn(bin string, flags []string) (*server, error) {
	s := &server{cmd: exec.Command(bin, flags...), errEOF: make(chan struct{})}
	s.cmd.Stdout = &s.stdout
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("spawn jitserver: %w", err)
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn jitserver: %w", err)
	}
	addr := make(chan string, 1) // one send: the first serving line
	go func() {
		defer close(s.errEOF)
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stderr.WriteString(line + "\n")
			s.mu.Unlock()
			if m := servingLine.FindStringSubmatch(line); m != nil && !sent {
				sent = true
				addr <- m[1]
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("jitserver exited before serving: %s", s.stderrText())
		}
		s.addr = a
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, fmt.Errorf("jitserver did not start serving within 20s: %s", s.stderrText())
	}
	return s, nil
}

func (s *server) stderrText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.TrimSpace(s.stderr.String())
}

// conn is one greeted connection.
type conn struct {
	net.Conn
	r *bufio.Reader
}

// dial opens a connection, declares its role ("ingest" or "subscribe") and
// reads the greeting.
func (s *server) dial(role string) (*conn, error) {
	c, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", role, err)
	}
	if _, err := fmt.Fprintf(c, "{\"cmd\":%q}\n", role); err != nil {
		c.Close()
		return nil, fmt.Errorf("declare %s: %w", role, err)
	}
	// 64 KB: the subscriber side reads bursts of ~60-byte delivery lines.
	r := bufio.NewReaderSize(c, 64<<10)
	line, err := r.ReadBytes('\n')
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("%s greeting: %w", role, err)
	}
	var g struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(line, &g); err != nil || !g.OK {
		c.Close()
		return nil, fmt.Errorf("%s greeting refused: %s", role, bytes.TrimSpace(line))
	}
	return &conn{Conn: c, r: r}, nil
}

// connect dials the subscriber, then the ingest connection, and returns the
// set-up time: exec of jitserver to both greetings received.
func (s *server) connect() (sub, ing *conn, setup time.Duration, err error) {
	if sub, err = s.dial("subscribe"); err != nil {
		return nil, nil, 0, err
	}
	if ing, err = s.dial("ingest"); err != nil {
		sub.Close()
		return nil, nil, 0, err
	}
	return sub, ing, time.Since(s.started), nil
}

// exit is what a finished jitserver reports about itself.
type exit struct {
	delivered, arrivals, cost uint64
	checkpoints               uint64
	cpu                       time.Duration // user+sys
}

var exitLine = regexp.MustCompile(`delivered=(\d+) checkpoints=(\d+) replay_dups=\d+ resume_skipped=\d+ arrivals=(\d+) cost=(\d+)`)

// wait reaps a server that was sent eos and parses its exit line. A non-zero
// exit status is an error.
func (s *server) wait() (exit, error) {
	// The stderr pipe reaches EOF when the process exits; Wait must not run
	// before the pipe's reader is done.
	select {
	case <-s.errEOF:
	case <-time.After(60 * time.Second):
		s.kill()
		return exit{}, fmt.Errorf("jitserver did not exit within 60s of eos: %s", s.stderrText())
	}
	if err := s.cmd.Wait(); err != nil {
		return exit{}, fmt.Errorf("jitserver: %w: %s", err, s.stderrText())
	}
	m := exitLine.FindStringSubmatch(s.stdout.String())
	if m == nil {
		return exit{}, fmt.Errorf("jitserver exit line not understood: %q", s.stdout.String())
	}
	var e exit
	for i, dst := range []*uint64{&e.delivered, &e.checkpoints, &e.arrivals, &e.cost} {
		*dst, _ = strconv.ParseUint(m[i+1], 10, 64) // the regexp admits only digits
	}
	ps := s.cmd.ProcessState
	e.cpu = ps.UserTime() + ps.SystemTime()
	return e, nil
}

// kill stops the server without waiting for a drain and reaps it.
func (s *server) kill() {
	s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-s.errEOF
	s.cmd.Wait() //nolint:errcheck // the kill is the expected cause
}

// setupOnce spawns a server, greets both connections, and kills it: one
// extra sample of the set-up time.
func setupOnce(bin string, flags []string) (time.Duration, error) {
	s, err := spawn(bin, flags)
	if err != nil {
		return 0, err
	}
	defer s.kill()
	sub, ing, d, err := s.connect()
	if err != nil {
		return 0, err
	}
	sub.Close()
	ing.Close()
	return d, nil
}
