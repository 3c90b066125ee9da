package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator proper: one writer on the ingest connection, one reader
// on the subscriber connection, and a throughput tracker sampling both. The
// reader only timestamps and copies raw lines; all parsing happens after the
// run (stats.go), so the generator's own CPU stays off the measured path as
// far as a 2-core box allows.

// sublog is the raw subscriber log of one pass: every line the server sent
// after the greeting, with its receive time.
type sublog struct {
	buf []byte
	end []int           // line i is buf[end[i-1]:end[i]]
	at  []time.Duration // receive time of line i, since the pass's clock origin
}

func (l *sublog) line(i int) []byte {
	start := 0
	if i > 0 {
		start = l.end[i-1]
	}
	return l.buf[start:l.end[i]]
}

// readSubscriber copies lines into log until the server's eos or error line,
// or the connection fails. origin is the pass's clock origin.
func readSubscriber(c *conn, origin time.Time, log *sublog, recv *atomic.Int64) error {
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("subscriber stream ended before eos: %w", err)
		}
		log.at = append(log.at, time.Since(origin))
		log.buf = append(log.buf, line...)
		log.end = append(log.end, len(log.buf))
		recv.Add(1)
		if !isDelivery(line) {
			return nil // eos or error line: classified after the run
		}
	}
}

func isDelivery(line []byte) bool { return bytes.HasPrefix(line, []byte(`{"seq"`)) }

// bulkPause is how long the peak pass's reader lets deliveries pile up in
// the socket between two reads.
const bulkPause = 2 * time.Millisecond

// readSubscriberBulk is the peak pass's reader. The server writes one
// delivery per socket write; a reader that wakes for each costs a third of a
// core at fanout's 10⁵ lines/s, on a box whose two cores the server can use
// alone. The peak pass needs no per-line receive time, only the eos line's,
// so this reader takes whatever has arrived, in one read, every bulkPause —
// far below what the socket buffers hold at any workload's delivery rate —
// and splits it into lines once the stream has ended; a line's time is that
// of the read that completed it.
func readSubscriberBulk(c *conn, origin time.Time, log *sublog) error {
	type chunk struct {
		end int
		at  time.Duration
	}
	var chunks []chunk
	split := func() {
		k := 0
		for i, b := range log.buf {
			if b != '\n' {
				continue
			}
			for chunks[k].end <= i {
				k++
			}
			log.end = append(log.end, i+1)
			log.at = append(log.at, chunks[k].at)
		}
	}
	for {
		if len(log.buf) == cap(log.buf) {
			log.buf = append(log.buf, 0)[:len(log.buf)]
		}
		n, err := c.r.Read(log.buf[len(log.buf):cap(log.buf)])
		log.buf = log.buf[:len(log.buf)+n]
		chunks = append(chunks, chunk{len(log.buf), time.Since(origin)})
		if n > 0 && log.buf[len(log.buf)-1] == '\n' {
			last := bytes.LastIndexByte(log.buf[:len(log.buf)-1], '\n') + 1
			if !isDelivery(log.buf[last:]) {
				split()
				return nil // eos or error line: classified after the run
			}
		}
		if err != nil {
			return fmt.Errorf("subscriber stream ended before eos: %w", err)
		}
		time.Sleep(bulkPause)
	}
}

// tracker is the throughput tracker: it samples the sent and received
// counters on a fixed period, so a pass's offered and delivered rates can be
// checked against what the schedule asked for. It also follows the server's
// resident-set high-water mark (VmHWM in /proc/<pid>/status), because the
// ru_maxrss that wait4 reports for a child is seeded with the *parent's* peak:
// until exec the child runs on the harness's address space, and exec folds
// that space's high-water mark into the child's.
type tracker struct {
	sent, recv atomic.Int64
	pid        int
	hwmKB      int64
	samples    []trackSample
	stop       chan struct{}
	done       chan struct{}
}

type trackSample struct {
	at         time.Duration
	sent, recv int64
}

const trackPeriod = 250 * time.Millisecond

func startTracker(origin time.Time, pid int) *tracker {
	t := &tracker{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		tick := time.NewTicker(trackPeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t.samples = append(t.samples, trackSample{time.Since(origin), t.sent.Load(), t.recv.Load()})
				t.readHWM()
			case <-t.stop:
				t.readHWM() // the server may be gone already; the mark only rises, so the last tick stands
				return
			}
		}
	}()
	return t
}

// readHWM raises hwmKB to the server's current VmHWM, if it can be read.
func (t *tracker) readHWM() {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", t.pid))
	if err != nil {
		return
	}
	const tag = "VmHWM:"
	i := bytes.Index(b, []byte(tag))
	if i < 0 {
		return
	}
	rest := bytes.TrimLeft(b[i+len(tag):], " \t")
	if kb, _, ok := parseUint(rest, 0); ok && int64(kb) > t.hwmKB {
		t.hwmKB = int64(kb)
	}
}

// finish stops the sampler and returns its samples.
func (t *tracker) finish() []trackSample {
	close(t.stop)
	<-t.done
	return t.samples
}

// rates returns the mean frames/s sent and deliveries/s received over
// [from, to), from the tracker's samples; zeros when the interval holds fewer
// than two.
func rates(samples []trackSample, from, to time.Duration) (sent, recv float64) {
	var first, last *trackSample
	for i := range samples {
		s := &samples[i]
		if s.at < from || s.at >= to {
			continue
		}
		if first == nil {
			first = s
		}
		last = s
	}
	if first == nil || last == first {
		return 0, 0
	}
	d := (last.at - first.at).Seconds()
	return float64(last.sent-first.sent) / d, float64(last.recv-first.recv) / d
}

// passResult is what one server incarnation produced.
type passResult struct {
	setup   time.Duration
	log     sublog
	samples []trackSample
	rssKB   int64 // the server's resident-set high-water mark, by the tracker
	exit    exit
	// first and eos are the pass's clock: first frame written, and the
	// subscriber's eos line received (both since the clock origin).
	first, eos time.Duration
	ack        []byte // the ingest connection's reply to eos
	sched      *schedule
}

const eosCmd = "{\"cmd\":\"eos\"}\n"

// runPass drives one fresh server incarnation: connect, start the reader,
// let send write the frames, send eos, wait for the subscriber's eos line,
// reap the server. send returns once every frame has been written. lines is
// how many subscriber lines the oracle expects, so the log never grows during
// the pass; bulk selects the peak pass's reader, which gives up per-line
// receive times.
func runPass(bin string, flags []string, lines int, bulk bool, send func(c *conn, origin time.Time, sent *atomic.Int64) (*schedule, error)) (*passResult, error) {
	srv, err := spawn(bin, flags)
	if err != nil {
		return nil, err
	}
	reaped := false
	defer func() {
		if !reaped {
			srv.kill()
		}
	}()
	sub, ing, setup, err := srv.connect()
	if err != nil {
		return nil, err
	}
	defer sub.Close()
	defer ing.Close()

	res := &passResult{setup: setup}
	// A delivery line is 50-70 bytes; the buffer grows if that is ever wrong.
	res.log = sublog{buf: make([]byte, 0, (lines+1)*80), end: make([]int, 0, lines+1), at: make([]time.Duration, 0, lines+1)}
	// No collection of the harness's own heap — the input, the oracle's
	// results — runs beside the server during the pass.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	origin := time.Now()
	trk := startTracker(origin, srv.cmd.Process.Pid)
	readErr := make(chan error, 1)
	go func() {
		if bulk {
			readErr <- readSubscriberBulk(sub, origin, &res.log)
		} else {
			readErr <- readSubscriber(sub, origin, &res.log, &trk.recv)
		}
	}()

	res.first = time.Since(origin)
	res.sched, err = send(ing, origin, &trk.sent)
	if err == nil {
		_, err = ing.Write([]byte(eosCmd))
	}
	if err != nil {
		trk.finish()
		return nil, fmt.Errorf("ingest write: %w (server said: %s)", err, srv.stderrText())
	}
	// The ack comes back before the engine has drained, so it is not the
	// stop signal; the subscriber's eos line is.
	res.ack, _ = ing.r.ReadBytes('\n')                     // a missing ack is classified by verify
	sub.SetReadDeadline(time.Now().Add(120 * time.Second)) //nolint:errcheck // TCP conns support deadlines
	err = <-readErr
	res.samples = trk.finish()
	res.rssKB = trk.hwmKB
	if err != nil {
		return nil, err
	}
	res.eos = res.log.at[len(res.log.at)-1]
	reaped = true
	if res.exit, err = srv.wait(); err != nil {
		return nil, err
	}
	return res, nil
}

// peakSend writes frames[:n] as fast as TCP accepts them, in 64 KB buffered
// writes. Backpressure closes the loop: the server's bounded ingest channel
// and blocking delivery ring stall the socket.
func peakSend(in *input, n int) func(*conn, time.Time, *atomic.Int64) (*schedule, error) {
	return func(c *conn, _ time.Time, sent *atomic.Int64) (*schedule, error) {
		w := bufio.NewWriterSize(c, 64<<10)
		for i := 0; i < n; i++ {
			if _, err := w.Write(in.frame(i)); err != nil {
				return nil, err
			}
			sent.Add(1)
		}
		return nil, w.Flush()
	}
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep parks the
// goroutine on the runtime's netpoller, whose timeout has millisecond
// granularity: measured here it overshoots by about 1 ms, which at 1 000+
// frames/s would turn the schedule into bursts and put the generator's own
// lateness into every latency. nanosleep overshoots by 50-200 µs.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up (EINTR) only sends the frame's check of the clock round again
}

// step is one constant-rate segment of an open-loop schedule.
type step struct {
	name   string
	rate   int // frames/s
	frames int
}

// schedule records an open-loop pass: when each frame was due and when it
// was actually handed to the socket.
type schedule struct {
	steps []step
	first []int           // steps[k] covers frames first[k] .. first[k+1]-1
	due   []time.Duration // since the clock origin
	sent  []time.Duration // just before the write
	// slowWrites counts, per step, writes that took over a millisecond —
	// the socket pushing back, not the generator running late.
	slowWrites []int
}

// stepOf returns the index of the step frame i belongs to.
func (s *schedule) stepOf(i int) int {
	k := 0
	for k+1 < len(s.steps) && i >= s.first[k+1] {
		k++
	}
	return k
}

// pacedSend writes the steps' frames one write per frame, frame i of a step
// due at the step's start + i/rate. The schedule never slows down: a frame
// that cannot be written on time is written late, the next ones follow at
// once until the generator has caught up, and every latency is charged from
// the due time, not the send time. sleep is preciseSleep outside tests.
func pacedSend(in *input, steps []step, sleep func(time.Duration)) func(*conn, time.Time, *atomic.Int64) (*schedule, error) {
	return func(c *conn, origin time.Time, sent *atomic.Int64) (*schedule, error) {
		s := &schedule{steps: steps, slowWrites: make([]int, len(steps))}
		start := time.Since(origin)
		i := 0
		for k, st := range steps {
			s.first = append(s.first, i)
			for j := 0; j < st.frames; j, i = j+1, i+1 {
				due := start + time.Duration(float64(j)/float64(st.rate)*float64(time.Second))
				now := time.Since(origin)
				for d := due - now; d > 0; d = due - now {
					sleep(d)
					now = time.Since(origin)
				}
				s.due = append(s.due, due)
				s.sent = append(s.sent, now)
				if _, err := c.Write(in.frame(i)); err != nil {
					return nil, err
				}
				if time.Since(origin)-now > time.Millisecond {
					s.slowWrites[k]++
				}
				sent.Add(1)
			}
			start += time.Duration(float64(st.frames) / float64(st.rate) * float64(time.Second))
		}
		s.first = append(s.first, i)
		return s, nil
	}
}
