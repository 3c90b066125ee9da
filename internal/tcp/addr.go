// Package tcp is the TCP listener of the served binaries (jitserver, jitrun
// -obs-addr): a socket made, bound and accepted on through package syscall
// and waited on through the runtime's poller, with every accepted connection
// an *os.File (DESIGN.md §10). It exists so that those binaries do not import
// package net, which links the cgo resolver and with it libc and the dynamic
// loader — about 1.4 MB of every served process's resident set — for name
// resolution they never need: a listen address is an IP literal, an empty
// host or localhost.
//
// Off unix the listener is package net's behind the same types (net uses no
// cgo there).
package tcp

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// ErrClosed is what Accept returns once the listener is closed.
var ErrClosed = errors.New("tcp: listener closed")

// ParseAddr parses a listen address, host:port, the way Listen reads it. The
// host is an IP literal (an IPv6 one in brackets), empty for every
// interface, or localhost, which is 127.0.0.1; no other name is resolved.
// The port is a number from 0 (any free port) to 65535. An empty host comes
// back as the IPv6 unspecified address.
func ParseAddr(addr string) (netip.AddrPort, error) {
	bad := func(why string) (netip.AddrPort, error) {
		return netip.AddrPort{}, fmt.Errorf("listen address %q: %s", addr, why)
	}
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return bad("missing port")
	}
	host, port := addr[:i], addr[i+1:]
	if h, ok := strings.CutPrefix(host, "["); ok {
		if host, ok = strings.CutSuffix(h, "]"); !ok {
			return bad("unclosed [")
		}
	} else if strings.Contains(host, ":") {
		return bad("an IPv6 host goes in brackets, as in [::1]:4640")
	}
	p, err := strconv.ParseUint(port, 10, 16)
	if err != nil {
		return bad("the port must be a number from 0 to 65535")
	}
	var ip netip.Addr
	switch {
	case host == "":
		ip = netip.IPv6Unspecified()
	case strings.EqualFold(host, "localhost"):
		ip = netip.AddrFrom4([4]byte{127, 0, 0, 1})
	default:
		if ip, err = netip.ParseAddr(host); err != nil {
			return bad(fmt.Sprintf("host %q is not an IP address or localhost (host names are not resolved)", host))
		}
		if ip.Zone() != "" {
			return bad("zoned IPv6 addresses are not supported")
		}
	}
	return netip.AddrPortFrom(ip.Unmap(), uint16(p)), nil
}
