package tcp

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"
)

// mustListen binds addr for the test's lifetime.
func mustListen(t *testing.T, addr string) *Listener {
	t.Helper()
	l, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// pair returns both ends of one connection through l: the accepted one and
// the dialled one.
func pair(t *testing.T, l *Listener) (*Conn, net.Conn) {
	t.Helper()
	c, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, c
}

// TestParseAddr: what Listen takes, and a clear refusal, naming the
// address, of what it does not — a host name above all, which is never
// resolved.
func TestParseAddr(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{"127.0.0.1:4640", "127.0.0.1:4640"},
		{"localhost:0", "127.0.0.1:0"},
		{"LocalHost:9", "127.0.0.1:9"},
		{":9090", "[::]:9090"},
		{"[::1]:0", "[::1]:0"},
		{"[::ffff:10.0.0.1]:80", "10.0.0.1:80"},
		{"[127.0.0.1]:65535", "127.0.0.1:65535"},
	} {
		ap, err := ParseAddr(tc.addr)
		if err != nil || ap.String() != tc.want {
			t.Errorf("ParseAddr(%q) = %v, %v; want %s", tc.addr, ap, err, tc.want)
		}
	}
	for _, tc := range []struct{ addr, want string }{
		{"example.com:80", `host "example.com" is not an IP address or localhost (host names are not resolved)`},
		{"127.0.0.1", "missing port"},
		{"", "missing port"},
		{"127.0.0.1:99999", "port must be a number"},
		{"127.0.0.1:http", "port must be a number"},
		{"127.0.0.1:", "port must be a number"},
		{"::1:80", "brackets"},
		{"[::1:80", "unclosed"},
		{"[fe80::1%eth0]:80", "zoned"},
	} {
		_, err := ParseAddr(tc.addr)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), tc.addr) {
			t.Errorf("ParseAddr(%q) = %v; want an error naming the address and %q", tc.addr, err, tc.want)
		}
	}
}

// TestPortZeroReportsTheBoundPort: Addr prints what was bound, as package
// net would, and that address takes connections.
func TestPortZeroReportsTheBoundPort(t *testing.T) {
	for _, tc := range []struct{ addr, host, dial string }{
		{"127.0.0.1:0", "127.0.0.1", ""},
		{"localhost:0", "127.0.0.1", ""},
		{":0", "::", "127.0.0.1"}, // one dual-stack socket takes IPv4 too
	} {
		l := mustListen(t, tc.addr)
		ap, err := netip.ParseAddrPort(l.Addr())
		if err != nil || ap.Addr().String() != tc.host || ap.Port() == 0 {
			t.Fatalf("Listen(%q).Addr() = %q (%v), want %s and the bound port", tc.addr, l.Addr(), err, tc.host)
		}
		dial := l.Addr()
		if tc.dial != "" {
			dial = netip.AddrPortFrom(netip.MustParseAddr(tc.dial), ap.Port()).String()
		}
		c, err := net.Dial("tcp", dial)
		if err != nil {
			t.Fatalf("dial %s for %q: %v", dial, tc.addr, err)
		}
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		s.Close()
	}
}

func TestIPv6LoopbackAccepts(t *testing.T) {
	l, err := Listen("[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback here: %v", err)
	}
	defer l.Close()
	if !strings.HasPrefix(l.Addr(), "[::1]:") || strings.HasSuffix(l.Addr(), ":0") {
		t.Fatalf("Addr() = %q, want [::1] and the bound port", l.Addr())
	}
	s, c := pair(t, l)
	io.WriteString(c, "ping\n")
	buf := make([]byte, 5)
	if _, err := io.ReadFull(s, buf); err != nil || string(buf) != "ping\n" {
		t.Fatalf("read %q, %v", buf, err)
	}
}

// TestCloseUnblocksAccept: closing the listener wakes an Accept that is
// waiting, with ErrClosed, and later ones fail the same way.
func TestCloseUnblocksAccept(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		got <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Accept reach the poller; it fails the same way if not
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left Accept waiting")
	}
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Accept on a closed listener = %v, want ErrClosed", err)
	}
}

func TestReadDeadline(t *testing.T) {
	s, _ := pair(t, mustListen(t, "127.0.0.1:0"))
	s.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past the deadline = %v, want os.ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("a 50 ms deadline fired after %v", d)
	}
}

// TestCloseWriteDeliversAll: after CloseWrite the peer reads every byte
// written, then EOF, and can still answer.
func TestCloseWriteDeliversAll(t *testing.T) {
	s, c := pair(t, mustListen(t, "127.0.0.1:0"))
	reply := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB, past the socket buffers
	wrote := make(chan error, 1)
	go func() {
		_, err := s.Write(reply)
		if err == nil {
			err = s.CloseWrite()
		}
		wrote <- err
	}()
	got, err := io.ReadAll(c)
	if err != nil || !bytes.Equal(got, reply) {
		t.Fatalf("peer read %d of %d bytes, %v", len(got), len(reply), err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	io.WriteString(c, "bye")
	buf := make([]byte, 3)
	if _, err := io.ReadFull(s, buf); err != nil || string(buf) != "bye" {
		t.Fatalf("half-closed side read %q, %v", buf, err)
	}
}

// TestPortRebindsAtOnce: a listener whose server closed a connection first
// (leaving it in TIME_WAIT), then died, gives its port to the next Listen
// at once — the crash matrix restarts servers on the same port.
func TestPortRebindsAtOnce(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	s, c := pair(t, l)
	io.WriteString(s, "x")
	s.Close() // the server closes first: its side goes to TIME_WAIT
	io.ReadAll(c)
	c.Close()
	l.Close()
	l2, err := Listen(addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	l2.Close()
}
