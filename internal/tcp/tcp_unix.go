//go:build unix

package tcp

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"sync/atomic"
	"syscall"
)

// Listener is a listening TCP socket.
type Listener struct {
	f      *os.File
	rc     syscall.RawConn
	addr   string
	closed atomic.Bool
}

// Conn is an accepted connection: Read, Write, Close and the deadlines are
// its *os.File's.
type Conn struct{ *os.File }

// Listen binds addr (see ParseAddr) and listens on it with SO_REUSEADDR, so
// a restarted server takes its port back at once. An unspecified host, as
// with package net, listens on one dual-stack socket on [::], or on 0.0.0.0
// where the system has no IPv6.
func Listen(addr string) (*Listener, error) {
	ap, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	var fd int
	if ap.Addr().IsUnspecified() {
		fd, err = listen(netip.AddrPortFrom(netip.IPv6Unspecified(), ap.Port()))
		if errors.Is(err, syscall.EAFNOSUPPORT) || errors.Is(err, syscall.EADDRNOTAVAIL) {
			fd, err = listen(netip.AddrPortFrom(netip.IPv4Unspecified(), ap.Port()))
		}
	} else {
		fd, err = listen(ap)
	}
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("listen %s: %w", addr, os.NewSyscallError("getsockname", err))
	}
	l := &Listener{f: os.NewFile(uintptr(fd), "tcp-listener"), addr: addrOf(sa).String()}
	if l.rc, err = l.f.SyscallConn(); err != nil {
		l.f.Close()
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return l, nil
}

// listen returns a nonblocking, close-on-exec socket bound to ap and
// listening.
func listen(ap netip.AddrPort) (int, error) {
	family, sa := syscall.AF_INET6, syscall.Sockaddr(&syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ap.Addr().As16()})
	if ap.Addr().Is4() {
		family, sa = syscall.AF_INET, &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}
	}
	syscall.ForkLock.RLock()
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM, syscall.IPPROTO_TCP)
	if err == nil {
		syscall.CloseOnExec(fd)
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return -1, os.NewSyscallError("socket", err)
	}
	call, err := "setnonblock", syscall.SetNonblock(fd, true)
	if err == nil {
		call, err = "setsockopt", syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	}
	if err == nil && ap.Addr().IsUnspecified() && family == syscall.AF_INET6 {
		call, err = "setsockopt", syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0)
	}
	if err == nil {
		call, err = "bind", syscall.Bind(fd, sa)
	}
	if err == nil {
		call, err = "listen", syscall.Listen(fd, syscall.SOMAXCONN)
	}
	if err != nil {
		syscall.Close(fd)
		return -1, os.NewSyscallError(call, err)
	}
	return fd, nil
}

// addrOf is the address of an IPv4 or IPv6 socket.
func addrOf(sa syscall.Sockaddr) netip.AddrPort {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(sa.Port))
	}
	return netip.AddrPort{}
}

// Accept waits for the next connection and returns it nonblocking and
// close-on-exec, with TCP_NODELAY (a small line goes out at once) and
// keepalive set. Once the listener is closed it returns ErrClosed.
func (l *Listener) Accept() (*Conn, error) {
	var fd int
	var err error
	rerr := l.rc.Read(func(lfd uintptr) bool {
		for {
			syscall.ForkLock.RLock()
			fd, _, err = syscall.Accept(int(lfd))
			if err == nil {
				syscall.CloseOnExec(fd)
			}
			syscall.ForkLock.RUnlock()
			if err != syscall.EINTR && err != syscall.ECONNABORTED {
				return err != syscall.EAGAIN
			}
		}
	})
	if rerr != nil {
		if l.closed.Load() {
			return nil, ErrClosed
		}
		return nil, rerr
	}
	if err != nil {
		return nil, os.NewSyscallError("accept", err)
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError("setnonblock", err)
	}
	// As package net does, failures to set the options are not the
	// connection's: it is served either way.
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1)
	keepAlivePeriod(fd)
	return &Conn{os.NewFile(uintptr(fd), "tcp")}, nil
}

// Close stops the listener; a pending Accept returns ErrClosed.
func (l *Listener) Close() error {
	l.closed.Store(true)
	return l.f.Close()
}

// Addr is the bound address as package net prints it: 127.0.0.1:40551,
// [::1]:4640.
func (l *Listener) Addr() string { return l.addr }

// CloseWrite shuts down the sending side of the connection: the peer reads
// what was written, then end of file.
func (c *Conn) CloseWrite() error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) { serr = syscall.Shutdown(int(fd), syscall.SHUT_WR) }); err != nil {
		return err
	}
	return os.NewSyscallError("shutdown", serr)
}
