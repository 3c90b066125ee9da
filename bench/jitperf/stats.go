package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// The stats aggregator: everything computed from a pass's raw logs after
// the pass has ended — delivery parsing, the oracle comparison, latency
// percentiles, generator lateness.

// parseDelivery reads seq and the result's constituent IDs out of one
// delivery line, {"seq":41,"ts":121500,"key":"0:3|1:9|2:11|3:14"}.
func parseDelivery(line []byte) (seq uint64, r ids, ok bool) {
	const seqTag, keyTag = `{"seq":`, `"key":"`
	if !bytes.HasPrefix(line, []byte(seqTag)) {
		return 0, r, false
	}
	p := len(seqTag)
	seq, p, ok = parseUint(line, p)
	if !ok {
		return 0, r, false
	}
	k := bytes.Index(line[p:], []byte(keyTag))
	if k < 0 {
		return 0, r, false
	}
	r, ok = parseKey(line[p+k+len(keyTag):])
	return seq, r, ok
}

// parseKey reads a Composite.Key, "src:id|src:id|..." up to the closing
// quote or the end of the input.
func parseKey(key []byte) (r ids, ok bool) {
	p, parts := 0, 0
	for {
		var src, id uint64
		if src, p, ok = parseUint(key, p); !ok || src >= numSources || p >= len(key) || key[p] != ':' {
			return r, false
		}
		if id, p, ok = parseUint(key, p+1); !ok || id == 0 || r[src] != 0 {
			return r, false
		}
		r[src] = id
		parts++
		if p >= len(key) || key[p] == '"' {
			return r, parts > 0
		}
		if key[p] != '|' {
			return r, false
		}
		p++
	}
}

func parseUint(b []byte, p int) (v uint64, next int, ok bool) {
	start := p
	for p < len(b) && b[p] >= '0' && b[p] <= '9' {
		v = v*10 + uint64(b[p]-'0')
		p++
	}
	return v, p, p > start && p-start < 20
}

// failures counts, for one pass, every way an operation can fail. Their sum
// over both passes is the run's `failed`; the arrivals sent plus the
// deliveries expected is its `attempted`.
type failures struct {
	missing, spurious, duplicate int // deliveries against the oracle
	outOfSeq                     int // delivery lines whose seq is not previous+1
	rejected                     int // frames the server did not acknowledge as ingested
	errorLines                   int // protocol error lines, or a subscriber stream without a clean eos
	badExit                      int // the server's exit line disagrees with the pass
}

func (f failures) total() int {
	return f.missing + f.spurious + f.duplicate + f.outOfSeq + f.rejected + f.errorLines + f.badExit
}

func (f failures) String() string {
	return fmt.Sprintf("missing=%d spurious=%d duplicate=%d out_of_seq=%d rejected=%d error_lines=%d bad_exit=%d",
		f.missing, f.spurious, f.duplicate, f.outOfSeq, f.rejected, f.errorLines, f.badExit)
}

// delivery is one parsed delivery line: the result and when it was received.
type delivery struct {
	r  ids
	at time.Duration
}

// verify checks a finished pass that sent n frames against the oracle's
// results for that prefix. It returns the parsed deliveries in delivery
// order alongside the failure counts.
func verify(p *passResult, n int, expected []ids) ([]delivery, failures) {
	var f failures
	lines := len(p.log.at)
	delivered := make([]delivery, 0, lines)
	got := make([]ids, 0, lines)
	for i := 0; i < lines-1; i++ {
		seq, r, ok := parseDelivery(p.log.line(i))
		if !ok {
			f.errorLines++
			continue
		}
		if seq != uint64(len(delivered))+1 {
			f.outOfSeq++
		}
		delivered = append(delivered, delivery{r, p.log.at[i]})
		got = append(got, r)
	}
	var eos struct {
		EOS       bool   `json:"eos"`
		Delivered uint64 `json:"delivered"`
	}
	if err := json.Unmarshal(p.log.line(lines-1), &eos); err != nil || !eos.EOS || eos.Delivered != uint64(len(delivered)) {
		f.errorLines++
	}
	// The eos ack can be lost: once eos closes the ingest channel the engine
	// may finish and jitserver's Shutdown close the ingest connection before
	// its handler has written the ack (seen about once in ten fanout paced
	// passes). An absent ack is therefore not a failure; the server's exit
	// line says how many arrivals the engine processed. An ack that is
	// present and is an error line is one.
	var ack struct {
		OK       bool `json:"ok"`
		Ingested int  `json:"ingested"`
	}
	ingested := int(p.exit.arrivals)
	if len(p.ack) > 0 {
		if err := json.Unmarshal(p.ack, &ack); err != nil || !ack.OK {
			f.errorLines++
		} else {
			ingested = ack.Ingested
		}
	}
	f.rejected += n - ingested
	if p.exit.arrivals != uint64(n) || p.exit.delivered != uint64(len(expected)) {
		f.badExit++
	}
	f.missing, f.spurious, f.duplicate = diff(expected, got)
	return delivered, f
}

// percentile picks the p-quantile of sorted samples, and refuses when fewer
// than ten samples lie beyond it: a tail read off a handful of points is
// noise with a name.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < 10 {
		return 0, false
	}
	return sorted[idx], true
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// stepStats is the aggregate of one open-loop step.
type stepStats struct {
	step    step
	samples int
	// p50, p95, p99 of the delivery latency in ms; 0 when the percentile did
	// not have its ten samples beyond it.
	p50, p95, p99 float64
	// firstThird and lastThird are the p50 of the first and last third of
	// the step's deliveries, in delivery order: a backlog that grows shows
	// as lastThird well above firstThird.
	firstThird, lastThird float64
	lateP99               float64 // generator lateness (sent − due), ms
	lateOK                bool
	slowWrites            int
	sentRate, recvRate    float64 // frames/s sent and deliveries/s received, by the tracker
}

// latencyLimitMS is the p95 a step must meet to count as sustained.
const latencyLimitMS = 50

// valid reports whether the generator kept its schedule: lateness under
// 5 ms at p99, unless the socket itself pushed back (slow writes), which is
// the server's doing and stays charged to it.
func (s stepStats) valid() bool {
	return !s.lateOK || s.lateP99 < 5 || s.slowWrites > 0
}

// sustained reports whether the server kept up with the step's rate.
func (s stepStats) sustained() bool {
	return s.valid() && s.p95 > 0 && s.p95 <= latencyLimitMS && s.lastThird <= 2*s.firstThird
}

// analyzePaced computes per-step latency from the paced pass: each
// delivery's latency is its receive time minus the due time of the frame
// carrying its newest constituent. Deliveries completed by warm-up frames
// (step 0) are not sampled.
func analyzePaced(p *passResult, delivered []delivery) []stepStats {
	sc := p.sched
	perStep := make([][]float64, len(sc.steps))
	for _, d := range delivered {
		frame := int(d.r.newest()) - 1
		if frame >= len(sc.due) {
			continue // spurious result naming an unknown tuple; verify counted it
		}
		k := sc.stepOf(frame)
		perStep[k] = append(perStep[k], ms(d.at-sc.due[frame]))
	}
	out := make([]stepStats, len(sc.steps))
	for k, st := range sc.steps {
		s := stepStats{step: st, samples: len(perStep[k]), slowWrites: sc.slowWrites[k]}
		if st.frames == 0 {
			out[k] = s
			continue
		}
		lat := perStep[k]
		third := len(lat) / 3
		s.firstThird, s.lastThird = median(lat[:third]), median(lat[len(lat)-third:])
		sort.Float64s(lat)
		s.p50, _ = percentile(lat, 0.50)
		s.p95, _ = percentile(lat, 0.95)
		s.p99, _ = percentile(lat, 0.99)
		late := make([]float64, 0, st.frames)
		for i := sc.first[k]; i < sc.first[k+1]; i++ {
			late = append(late, ms(sc.sent[i]-sc.due[i]))
		}
		sort.Float64s(late)
		s.lateP99, s.lateOK = percentile(late, 0.99)
		s.sentRate, s.recvRate = rates(p.samples, sc.due[sc.first[k]], sc.due[sc.first[k+1]-1])
		out[k] = s
	}
	return out
}
