package maporder_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/maporder"
)

func TestMaporder(t *testing.T) {
	linttest.Run(t, "testdata/src/engine", maporder.Analyzer)
}

// TestMaporderScope checks the package filter: identical code outside the
// deterministic packages is not the analyzer's business, and the two
// packages the determinism-critical maps moved into (the MNS tables, the
// dedup gate) are inside it.
func TestMaporderScope(t *testing.T) {
	linttest.Run(t, "testdata/src/harness", maporder.Analyzer)
	linttest.Run(t, "testdata/src/feedback", maporder.Analyzer)
	linttest.Run(t, "testdata/src/operator", maporder.Analyzer)
}
