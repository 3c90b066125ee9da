package operator

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stream"
)

// Sink terminates a plan: it counts final results, verifies temporal
// ordering, and can optionally retain results for test comparison.
type Sink struct {
	ctr     *metrics.Counters
	trace   *obs.Tracer
	keep    bool
	results []*stream.Composite
	count   uint64
	lastTS  stream.Time
	// OrderViolations counts deliveries whose timestamp went backwards —
	// must stay zero (the paper's temporal ordering requirement).
	OrderViolations uint64
}

// NewSink creates a sink. When keep is true every result is retained (tests
// only; experiments run with keep=false to avoid skewing memory accounting).
func NewSink(ctr *metrics.Counters, keep bool) *Sink {
	return &Sink{ctr: ctr, keep: keep, lastTS: -1}
}

// Consume implements Consumer.
func (s *Sink) Consume(c *stream.Composite, _ Port) {
	s.count++
	if s.ctr != nil {
		s.ctr.FinalResults++
	}
	if c.TS < s.lastTS {
		s.OrderViolations++
	}
	s.lastTS = c.TS
	s.trace.Delivery(c.TS)
	if s.keep {
		s.results = append(s.results, c)
	}
}

// SetTrace attaches (or, with nil, detaches) the observability tracer: each
// delivery feeds the arrival→delivery latency histogram (DESIGN.md §9).
func (s *Sink) SetTrace(tr *obs.Tracer) { s.trace = tr }

// Count returns the number of results delivered.
func (s *Sink) Count() uint64 { return s.count }

// Results returns retained results (keep mode only).
func (s *Sink) Results() []*stream.Composite { return s.results }

// ResultKeys returns the canonical keys of retained results in delivery
// order, for multiset comparison across engines.
func (s *Sink) ResultKeys() []string {
	keys := make([]string, len(s.results))
	for i, c := range s.results {
		keys[i] = c.Key()
	}
	return keys
}
