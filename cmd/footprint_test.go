package cmd_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServedBinariesLinkNoHTTPStack guards the footprint of the two
// commands that can bring the ops endpoint up. The endpoint is a small
// responder over net (internal/obs), and the paper's claim is about peak
// memory, which the served process's resident set measures with the
// binary's own pages in it: net/http and what it drags in (TLS, x509,
// templates) doubled jitserver to 10.4 MB, so an import that brings any of
// them back fails here.
func TestServedBinariesLinkNoHTTPStack(t *testing.T) {
	statSources(t)
	out, err := exec.Command("go", "list", "-deps", "./jitserver", "./jitrun").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	banned := map[string]bool{"net/http": true, "crypto/tls": true, "crypto/x509": true, "html/template": true}
	for _, pkg := range strings.Fields(string(out)) {
		if banned[pkg] {
			t.Errorf("jitserver or jitrun links %s", pkg)
		}
	}
}
