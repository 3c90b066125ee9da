package tcp

import "syscall"

// keepAlivePeriod probes an idle connection after 15 s and then every 15 s,
// package net's defaults, so a peer that vanished without a FIN (an ingest
// writer holding the one session, a subscriber the engine waits on) is
// dropped in minutes rather than the kernel's two hours.
func keepAlivePeriod(fd int) {
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15)
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15)
}
