//go:build unix && !linux

package tcp

// keepAlivePeriod leaves the system's keepalive timing: the option names
// differ from one unix to the next.
func keepAlivePeriod(int) {}
