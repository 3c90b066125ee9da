package cmd_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServedBinariesLinkNoHTTPStack guards the footprint of the two
// commands that serve over TCP. The paper's claim is about peak memory,
// which the served process's resident set measures with the binary's own
// pages in it: net/http and what it drags in (TLS, x509, templates) doubled
// jitserver to 10.4 MB, and package net links the cgo resolver, which maps
// libc and the dynamic loader (about 1.4 MB) into every served process. The
// ops endpoint is a small responder (internal/obs) and the sockets come from
// internal/tcp, so an import that brings any of them back fails here.
func TestServedBinariesLinkNoHTTPStack(t *testing.T) {
	statSources(t)
	out, err := exec.Command("go", "list", "-deps", "./jitserver", "./jitrun").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	banned := map[string]bool{"net/http": true, "crypto/tls": true, "crypto/x509": true, "html/template": true,
		"net": true, "runtime/cgo": true}
	for _, pkg := range strings.Fields(string(out)) {
		if banned[pkg] {
			t.Errorf("jitserver or jitrun links %s", pkg)
		}
	}
}
