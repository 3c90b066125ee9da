package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one arrival share
// its tuple ID; parent is the index of the span that caused this one, or -1.
type span struct {
	name       string
	start, end int64 // ns since the trace origin
	parent     int32
	arrival    uint64
}

// tracer holds spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op that reads no clock.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) reset(origin time.Time) {
	if t != nil {
		t.origin, t.spans = origin, t.spans[:0]
	}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32, arrival uint64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.origin)), parent: parent, arrival: arrival})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil && i >= 0 {
		t.spans[i].end = int64(time.Since(t.origin))
	}
}

// selfTimes returns each span's self time: its duration minus the durations
// of its direct children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// nameTotal aggregates the spans of one name.
type nameTotal struct {
	count           int
	totalNS, selfNS int64
}

func (t *tracer) selfByName() map[string]nameTotal {
	out := make(map[string]nameTotal)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		k := out[s.name]
		k.count++
		k.totalNS += s.end - s.start
		k.selfNS += self[i]
		out[s.name] = k
	}
	return out
}

func printSelfTimes(by map[string]nameTotal) {
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-16s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		k := by[n]
		fmt.Printf("  %-16s %10d %14.3f %14.3f\n", n, k.count, float64(k.totalNS)/1e6, float64(k.selfNS)/1e6)
	}
}

// chromeArrivals bounds the trace file: it holds every span of the first
// chromeArrivals arrivals plus every checkpoint and drain span, so it stays
// loadable in a trace viewer; the self-time table covers all spans.
const chromeArrivals = 5000

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, µs timestamps), loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	w.WriteString("[")
	first := true
	for i, s := range t.spans {
		if s.arrival > chromeArrivals && (s.name == "decode" || s.name == "engine.arrival" || s.name == "sink.consume") {
			continue
		}
		if !first {
			w.WriteString(",")
		}
		first = false
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"arrival\":%d}}",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.arrival)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
