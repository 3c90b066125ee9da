// Package metrics is a countersmerge fixture: Counters.Add forgets a field
// (selector form), Counters.Sub forgets another (composite-literal keys).
package metrics

// Counters is the fixture counter block.
type Counters struct {
	Probes  uint64
	Emitted uint64
	Dropped uint64
}

// Add merges o into c — deliberately missing Dropped.
func (c *Counters) Add(o *Counters) { // want "Counters.Add does not reference Counters field Dropped"
	c.Probes += o.Probes
	c.Emitted += o.Emitted
}

// Sub mentions fields through composite-literal keys, which count —
// deliberately missing Emitted.
func (c Counters) Sub(prev Counters) Counters { // want "Counters.Sub does not reference Counters field Emitted"
	return Counters{Probes: c.Probes - prev.Probes, Dropped: c.Dropped - prev.Dropped}
}
