package main

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stream"
)

func TestParseDelivery(t *testing.T) {
	seq, r, ok := parseDelivery([]byte(`{"seq":41,"ts":121500,"key":"0:3|1:9|2:11|3:14"}` + "\n"))
	if !ok || seq != 41 || r != (ids{3, 9, 11, 14}) {
		t.Fatalf("got seq=%d ids=%v ok=%t", seq, r, ok)
	}
	if r.newest() != 14 {
		t.Errorf("newest constituent %d, want 14", r.newest())
	}
	// The newest constituent is the largest ID wherever it sits in the key.
	if _, r, _ := parseDelivery([]byte(`{"seq":1,"ts":5,"key":"0:30|1:9|2:11|3:14"}`)); r.newest() != 30 {
		t.Errorf("newest constituent %d, want 30", r.newest())
	}
	for _, bad := range []string{
		`{"eos":true,"delivered":3}`,
		`{"error":"serve: malformed frame"}`,
		`{"seq":1,"ts":5,"key":"0:3|0:4"}`, // a source twice
		`{"seq":1,"ts":5,"key":"9:3"}`,     // no such source
		`{"seq":1,"ts":5,"key":"0:0"}`,     // IDs start at 1
		`{"seq":1,"ts":5,"key":"0:3;1:4"}`, // wrong separator
		`{"seq":1,"ts":5}`,                 // no key
	} {
		if _, _, ok := parseDelivery([]byte(bad)); ok {
			t.Errorf("%s parsed as a delivery", bad)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{199, 0.95, false, 0},
		{200, 0.95, true, 190},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{19, 0.50, false, 0},
		{20, 0.50, true, 10},
		{0, 0.50, false, 0},
	} {
		got, ok := percentile(samples(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("p%.0f of %d samples: got %v ok=%t, want %v ok=%t", c.p*100, c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// arrival [0,100) holds two sink children [10,30) and [40,45); one of the
	// children has a child of its own [12,20). A drain span stands alone.
	spans := []span{
		{name: "engine.arrival", start: 0, end: 100, parent: -1},
		{name: "sink.consume", start: 10, end: 30, parent: 0},
		{name: "inner", start: 12, end: 20, parent: 1},
		{name: "sink.consume", start: 40, end: 45, parent: 0},
		{name: "engine.drain", start: 100, end: 160, parent: -1},
	}
	want := []int64{75, 12, 8, 5, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
	by := (&tracer{spans: spans}).selfByName()
	if k := by["sink.consume"]; k.count != 2 || k.totalNS != 25 || k.selfNS != 17 {
		t.Errorf("sink.consume aggregate %+v, want count 2 total 25 self 17", k)
	}
	var total int64
	for _, s := range got {
		total += s
	}
	if total != 160 {
		t.Errorf("self times sum to %d, want the 160 ns the root spans cover", total)
	}
}

// An open loop keeps its schedule when the system under test stalls: the due
// times stay on the grid, the stalled frames go out late, and the lateness
// lands in the latency (receive − due), not in a stretched schedule.
func TestOpenLoopChargesStallToLatency(t *testing.T) {
	const frames, rate, stallAt = 300, 1000, 100
	const stall = 50 * time.Millisecond
	in := &input{off: []int{0}}
	for i := 0; i < frames; i++ {
		in.wire = appendFrame(in.wire, &stream.Tuple{ID: uint64(i + 1), TS: stream.Time(i)})
		in.off = append(in.off, len(in.wire))
	}
	client, srv := net.Pipe()
	defer client.Close()
	origin := time.Now()
	recv := make([]time.Duration, 0, frames)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 256)
		for len(recv) < frames {
			if len(recv) == stallAt {
				time.Sleep(stall) // the server stops reading: the writer blocks
			}
			// Frames are under 256 bytes and net.Pipe hands over one Write per
			// Read, so one Read is one frame.
			if _, err := srv.Read(buf); err != nil {
				return
			}
			recv = append(recv, time.Since(origin))
		}
	}()
	var sent atomic.Int64
	sched, err := pacedSend(in, []step{{"only", rate, frames}}, preciseSleep)(&conn{Conn: client}, origin, &sent)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if len(recv) != frames {
		t.Fatalf("received %d of %d frames", len(recv), frames)
	}
	for i, due := range sched.due {
		if want := sched.due[0] + time.Duration(i)*time.Second/rate; due != want {
			t.Fatalf("frame %d due at %v, want %v: the stall moved the schedule", i, due, want)
		}
	}
	if sched.slowWrites[0] == 0 {
		t.Error("the blocked write was not recorded as a slow write")
	}
	// The frame written into the stall, and the ones queued behind it, carry
	// the stall in their latency.
	if lat := recv[stallAt] - sched.due[stallAt]; lat < stall-5*time.Millisecond {
		t.Errorf("stalled frame's latency %v, want about %v", lat, stall)
	}
	if lat := recv[stallAt+10] - sched.due[stallAt+10]; lat < stall/2 {
		t.Errorf("frame queued behind the stall has latency %v: it was rescheduled, not charged", lat)
	}
	// And the generator catches up instead of staying late forever.
	if late := sched.sent[frames-1] - sched.due[frames-1]; late > 5*time.Millisecond {
		t.Errorf("last frame sent %v late: the generator never caught up", late)
	}
}

// TestBulkReaderSplitsLines feeds the peak pass's reader a delivery stream cut
// at arbitrary byte positions: every line must come out whole, in order, with
// the time of the read that completed it, and the eos line must end the read.
func TestBulkReaderSplitsLines(t *testing.T) {
	var wire []byte
	const lines = 200
	for i := 1; i <= lines; i++ {
		wire = fmt.Appendf(wire, "{\"seq\":%d,\"ts\":%d,\"key\":\"0:%d|1:2|2:3|3:4\"}\n", i, i*10, i)
	}
	wire = fmt.Appendf(wire, "{\"eos\":true,\"delivered\":%d}\n", lines)
	client, srv := net.Pipe()
	defer client.Close()
	go func() {
		defer srv.Close()
		for cut := 1; len(wire) > 0; cut = cut*7%97 + 1 { // 1..97 bytes: mid-line and multi-line writes
			n := min(cut, len(wire))
			if _, err := srv.Write(wire[:n]); err != nil {
				return
			}
			wire = wire[n:]
		}
	}()
	var log sublog
	if err := readSubscriberBulk(&conn{Conn: client, r: bufio.NewReader(client)}, time.Now(), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.end) != lines+1 || len(log.at) != lines+1 {
		t.Fatalf("%d lines and %d times, want %d", len(log.end), len(log.at), lines+1)
	}
	for i := 0; i < lines; i++ {
		seq, r, ok := parseDelivery(log.line(i))
		if !ok || seq != uint64(i+1) || r[0] != uint64(i+1) {
			t.Fatalf("line %d reads %q", i, log.line(i))
		}
		if i > 0 && log.at[i] < log.at[i-1] {
			t.Fatalf("line %d received at %v, before line %d at %v", i, log.at[i], i-1, log.at[i-1])
		}
	}
	if isDelivery(log.line(lines)) {
		t.Errorf("last line is %q, want the eos line", log.line(lines))
	}
}
