package report

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// shortReport builds the short-preset report once for all tests in the
// package (the sweep takes about a minute).
var shortReport = sync.OnceValue(func() *Report {
	return Build(Options{Short: true})
})

// TestGoldenShortReport regenerates the short-preset artifacts and asserts
// they are byte-identical to the committed RESULTS.md / RESULTS.json /
// results/*.svg. Any intentional change to the harness, the workloads or
// the renderers must land together with regenerated artifacts
// (`go run ./cmd/jitreport -short`); any unintentional drift — a
// determinism bug, a workload change leaking into the sweep — fails here.
//
// The short sweep takes about a minute, so the test runs in the full
// (non -short) suite only; pre-merge CI covers the same contract via
// `jitreport -short -check`.
func TestGoldenShortReport(t *testing.T) {
	if testing.Short() {
		t.Skip("short-preset sweep takes about a minute")
	}
	root := "../.."
	rep := shortReport()

	artifacts, err := rep.Artifacts()
	if err != nil {
		t.Fatalf("Artifacts: %v", err)
	}

	for rel, want := range artifacts {
		got, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Errorf("%s: %v (regenerate with `go run ./cmd/jitreport -short`)", rel, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifts from regenerated content (%d vs %d bytes) — regenerate with `go run ./cmd/jitreport -short`",
				rel, len(got), len(want))
		}
	}

	// A committed plot the harness no longer generates (renamed or
	// dropped figure) is drift too.
	for _, rel := range StaleSVGs(root, artifacts) {
		t.Errorf("%s exists on disk but is no longer generated — remove it or restore its figure", rel)
	}
}

// TestReportInvariants checks the semantic contract RESULTS.md's prose
// relies on — drained finals equal across modes, sharded finals equal
// across shard counts, indexed and scan runs agree on finals — so a
// byte-level drift failure in the golden test still comes with a verdict
// on which semantic invariant (if any) moved.
func TestReportInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("short-preset sweep takes about a minute")
	}
	rep := shortReport()

	if len(rep.Figures) != 8 {
		t.Fatalf("want 8 figures, got %d", len(rep.Figures))
	}
	for i, fig := range rep.Figures {
		if len(fig.Points) != len(ShortXs(rep.Specs[i])) {
			t.Errorf("%s: %d points", fig.ID, len(fig.Points))
		}
	}

	var refFinals uint64
	for _, row := range rep.Ext.Drain {
		if row.Mode == "REF" {
			refFinals = row.FinalResults
		}
	}
	if refFinals == 0 {
		t.Error("extension workload delivers zero finals — the drain section is vacuous")
	}
	for _, row := range rep.Ext.Drain {
		if row.FinalResults != refFinals {
			t.Errorf("drained %s finals %d != REF %d", row.Mode, row.FinalResults, refFinals)
		}
	}
	for _, row := range rep.Ext.Sharded {
		if row.FinalResults != refFinals {
			t.Errorf("sharded (%d) finals %d != %d", row.Shards, row.FinalResults, refFinals)
		}
		if row.Fallback {
			t.Errorf("sharded (%d): unexpected single-replica fallback", row.Shards)
		}
	}
	for _, row := range rep.Ext.Indexed {
		if !row.FinalsEqual {
			t.Errorf("indexed %s: finals differ between scan and indexed runs", row.Mode)
		}
		if row.IndexedCmp >= row.ScanCmp {
			t.Errorf("indexed %s: comparisons did not drop (%d >= %d)", row.Mode, row.IndexedCmp, row.ScanCmp)
		}
	}
}
