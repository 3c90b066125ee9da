//go:build !unix

package tcp

import (
	"errors"
	"fmt"
	"net"
)

// Listener is a listening TCP socket: package net's, which uses no cgo
// off unix.
type Listener struct{ l *net.TCPListener }

// Conn is an accepted connection.
type Conn struct{ *net.TCPConn }

// Listen binds addr (see ParseAddr) and listens on it.
func Listen(addr string) (*Listener, error) {
	if _, err := ParseAddr(addr); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return &Listener{l.(*net.TCPListener)}, nil
}

// Accept waits for the next connection; once the listener is closed it
// returns ErrClosed.
func (l *Listener) Accept() (*Conn, error) {
	c, err := l.l.AcceptTCP()
	if errors.Is(err, net.ErrClosed) {
		return nil, ErrClosed
	}
	if err != nil {
		return nil, err
	}
	return &Conn{c}, nil
}

// Close stops the listener; a pending Accept returns ErrClosed.
func (l *Listener) Close() error { return l.l.Close() }

// Addr is the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }
