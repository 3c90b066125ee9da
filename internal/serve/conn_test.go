package serve

import (
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tcp"
)

// TestStalledRoleLineIsCutOff: a connection that never sends its role line
// is closed after the head deadline, while an ingest session that idles
// between frames for longer than that is still served.
func TestStalledRoleLineIsCutOff(t *testing.T) {
	defer func(d time.Duration) { headTimeout = d }(headTimeout)
	headTimeout = 200 * time.Millisecond
	cfg, base := testParams(core.REF())
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown()
	ing, _, err := ingest(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ing.close()
	stalled, err := dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.close()
	stalled.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if n, err := stalled.conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("a connection without a role line read %d bytes, %v; want the server to close it", n, err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("a connection without a role line held for %v past a %v head deadline", d, headTimeout)
	}
	tuples := workload(base)[:5]
	if err := ing.sendTuples(tuples); err != nil {
		t.Fatal(err)
	}
	if n, err := ing.eos(); err != nil || n != uint64(len(tuples)) {
		t.Fatalf("an ingest session idle past the head deadline: eos ack ingested=%d (%v), want ok with ingested=%d", n, err, len(tuples))
	}
}

// TestConnectionCapSparesSessions fills the server to maxConns around a
// running ingest session and a subscriber: one more connection is closed
// unanswered, and the two sessions deliver the whole run.
func TestConnectionCapSparesSessions(t *testing.T) {
	cfg, base := testParams(core.JIT())
	_, want := base.RunKeys()
	r := serveRun(t, cfg, func(s *Server) error {
		ing, _, err := ingest(s.Addr())
		if err != nil {
			return err
		}
		defer ing.close()
		// Both sessions are in: the ingest session and the subscriber, marked.
		waitConns(t, s, func(conns map[*tcp.Conn]bool) bool {
			kept := 0
			for _, keep := range conns {
				if keep {
					kept++
				}
			}
			return len(conns) == 2 && kept == 1
		})
		var stalled []net.Conn
		defer func() {
			for _, c := range stalled {
				c.Close()
			}
		}()
		for len(stalled) < maxConns-2 {
			c, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Skipf("%d connections: %v", len(stalled), err)
			}
			stalled = append(stalled, c)
		}
		waitConns(t, s, func(conns map[*tcp.Conn]bool) bool { return len(conns) == maxConns })
		extra, err := dial(s.Addr())
		if err != nil {
			return err
		}
		defer extra.close()
		extra.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := extra.conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("the connection past the cap read %d bytes, %v; want it closed unanswered", n, err)
		}
		if err := ing.sendTuples(workload(base)); err != nil {
			return err
		}
		_, err = ing.eos()
		return err
	})
	if !slices.Equal(r.sub.keys, want) {
		t.Fatalf("the subscriber saw %d deliveries, want the run's %d in order", len(r.sub.keys), len(want))
	}
}

// waitConns polls, for up to five seconds, until ok holds of the server's
// open connections.
func waitConns(t *testing.T, s *Server, ok func(conns map[*tcp.Conn]bool) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(s.srv.Conns()); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server's connections never reached the awaited state")
		}
	}
}
