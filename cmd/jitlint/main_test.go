package main

import (
	"slices"
	"testing"

	"repro/internal/lint/suppaudit"
)

// TestRegistersAllAnalyzers pins the multichecker's registration: all four
// analyzers are installed, and the set matches suppaudit.KnownAnalyzers —
// so a new analyzer cannot ship without being suppressible and auditable.
func TestRegistersAllAnalyzers(t *testing.T) {
	var names []string
	for _, a := range analyzers() {
		names = append(names, a.Name)
	}
	slices.Sort(names)
	want := []string{"maporder", "suppaudit", "tracedisc", "wallclock"}
	if !slices.Equal(names, want) {
		t.Errorf("registered analyzers = %v, want %v", names, want)
	}
	known := slices.Clone(suppaudit.KnownAnalyzers)
	slices.Sort(known)
	if !slices.Equal(names, known) {
		t.Errorf("registered analyzers %v do not match suppaudit.KnownAnalyzers %v", names, known)
	}
}
