// Package metrics (drift variant) is a countersmerge fixture for config
// drift: a target type one of whose audited functions does not exist at all.
package metrics

// Counters has no Add — the analyzer reports the missing target instead of
// silently skipping it.
type Counters struct { // want "countersmerge target Counters.Add not found"
	Probes uint64
}

// Sub is present and complete.
func (c Counters) Sub(prev Counters) Counters { return Counters{Probes: c.Probes - prev.Probes} }
