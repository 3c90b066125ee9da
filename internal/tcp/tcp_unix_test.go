//go:build unix

package tcp

import (
	"syscall"
	"testing"
)

// TestAcceptedSocketOptions reads back what Accept sets: TCP_NODELAY, or
// Nagle's algorithm holds back the small greeting and delivery lines, and
// keepalive.
func TestAcceptedSocketOptions(t *testing.T) {
	s, _ := pair(t, mustListen(t, "127.0.0.1:0"))
	rc, err := s.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		name         string
		level, value int
	}{
		{"TCP_NODELAY", syscall.IPPROTO_TCP, syscall.TCP_NODELAY},
		{"SO_KEEPALIVE", syscall.SOL_SOCKET, syscall.SO_KEEPALIVE},
	} {
		var v int
		var gerr error
		if err := rc.Control(func(fd uintptr) { v, gerr = syscall.GetsockoptInt(int(fd), o.level, o.value) }); err != nil {
			t.Fatal(err)
		}
		if gerr != nil || v == 0 {
			t.Errorf("%s = %d, %v; want it set", o.name, v, gerr)
		}
	}
}
