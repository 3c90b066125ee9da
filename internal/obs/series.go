package obs

import (
	"strings"

	"repro/internal/metrics"
	"repro/internal/stream"
)

// Sample is one interval of the deterministic time series: the plan-wide
// Counters delta over (T−Δt, T] and the Account's live bytes at the
// boundary. T is an absolute stream-time grid point, never a wall-clock
// stamp.
type Sample struct {
	T         stream.Time
	Counters  metrics.Counters
	LiveBytes int64
}

// maxSamples bounds the series a sampler keeps: the latest samples, well
// above the 25 the report's behaviour appendix reads. A served process
// samples once per window without end, so an unbounded series would grow
// for as long as it runs.
const maxSamples = 1024

// sampler snapshots its tracer's measurement substrate every Δt of stream
// time. The determinism rules (DESIGN.md §9):
//
//   - Boundaries lie on the absolute grid k·Δt, anchored at stream time 0 —
//     not at the first arrival — so per-shard series from the same run
//     align bucket-for-bucket.
//   - A boundary fires when the clock first reaches or passes it, BEFORE
//     the crossing arrival is processed: the sample covers exactly the
//     activity with ts < boundary. Skipped-over boundaries emit empty
//     samples, keeping the grid uniform.
//   - Flush stamps the final partial interval at the NEXT grid boundary
//     (ceiling), again so shards agree on the last bucket.
//
// It reads the (Ledger, Account) pair Tracer.Bind set; it has no binding of
// its own. It keeps the last maxSamples samples and counts every one taken.
type sampler struct {
	tr      *Tracer
	dt      stream.Time
	next    stream.Time
	started bool

	prev    metrics.Counters // the totals at the last sample, or the first Bind
	samples ring[Sample]
	taken   int
}

// newSampler creates a sampler of tr's substrate with stream-time interval
// dt (must be > 0).
func newSampler(tr *Tracer, dt stream.Time) *sampler {
	if dt <= 0 {
		panic("obs: sampler interval must be positive stream time")
	}
	return &sampler{tr: tr, dt: dt, samples: ring[Sample]{limit: maxSamples}}
}

// tick advances the sampler clock; it takes one sample per grid boundary in
// (prevTick, ts] and reports whether any was taken. The first tick only
// anchors the grid (the stream's activity starts there; an interval before
// it would be vacuous).
func (s *sampler) tick(ts stream.Time) bool {
	if s.tr.src == nil {
		return false
	}
	if !s.started {
		s.started = true
		s.next = (ts/s.dt + 1) * s.dt
		return false
	}
	took := false
	for ts >= s.next {
		s.take(s.next)
		s.next += s.dt
		took = true
	}
	return took
}

// flush records the final partial interval, stamped at the next grid
// boundary. Repeated flushes stamp successive boundaries; the tracer calls
// it exactly once.
func (s *sampler) flush() {
	if s.tr.src == nil || !s.started {
		return
	}
	s.take(s.next)
	s.next += s.dt
}

func (s *sampler) take(at stream.Time) {
	cur := s.tr.src.Totals()
	sm := Sample{T: at, Counters: cur.Sub(s.prev)}
	if s.tr.acct != nil {
		sm.LiveBytes = s.tr.acct.Live()
	}
	s.prev = cur
	s.samples.push(sm)
	s.taken++
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Spark renders a unicode sparkline of the values, scaled to their maximum
// ("" for an empty slice; all-▁ for all-zero). Used by the jitreport
// behaviour-over-time appendix and the README's ASCII trace example.
func Spark(vals []uint64) string {
	if len(vals) == 0 {
		return ""
	}
	var max uint64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			// Ceiling scale: any nonzero value gets at least one step above ▁.
			i = int((v*uint64(len(sparkRunes)-1) + max - 1) / max)
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}
