// Package engine is a tracedisc fixture: direct obs.Sink/Event/Emit access
// is flagged in an instrumented package, *obs.Tracer methods are the
// sanctioned path. It imports the real repro/internal/obs — the analyzer
// matches the package by path suffix, not by module name.
package engine

import "repro/internal/obs"

// Flagged: holding a raw sink re-creates the always-on emission cost the
// Tracer indirection exists to prevent.
type emitter struct {
	sink obs.Sink // want "direct obs\\.Sink access"
}

// Flagged: building an Event and calling Emit bypass the nil-safe Tracer.
func bypass(s obs.Sink) { // want "direct obs\\.Sink access"
	s.Emit(obs.Event{}) // want "direct obs\\.Emit access" "direct obs\\.Event access"
}

// Flagged: a recorder is the harness side's wiring; the engine path
// neither builds one nor reads it.
func record() *obs.Recorder { // want "direct obs\\.Recorder access"
	return obs.NewRecorder(0) // want "direct obs\\.NewRecorder access"
}

// Not flagged: the Tracer methods are the discipline, nil-safe when
// tracing is off.
func sanctioned(tr *obs.Tracer) {
	tr.Watermark(0)
	tr.Probe("op", 0, 0)
}
