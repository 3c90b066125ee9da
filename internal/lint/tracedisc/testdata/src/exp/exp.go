// Package exp is a tracedisc scope fixture: harness-side packages wire
// sinks and tracers together, which is construction, not emission.
package exp

import "repro/internal/obs"

func wire() (*obs.Recorder, *obs.Tracer) {
	rec := obs.NewRecorder(0)
	return rec, obs.New(obs.Options{Sink: rec})
}
