package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/source"
	"repro/internal/stream"
)

// The layers run replays the peak pass's recorded frame bytes in process and
// times the calls into each layer's public functions from outside: once
// untraced (the per-layer numbers), and once more with a span at every boundary
// on the first half of the stream (the Chrome trace, self times, and — by
// difference over the same arrivals — the span overhead).
// Nothing inside the engine is instrumented; that is a later change.

// retain is jitserver's default delivery-ring size, which bounds the
// delivery tail a checkpoint carries (serve.Config.Retain).
const retain = 1 << 14

// buildPlan builds the plan exactly as serve.Open does.
func (w workload) buildPlan(in *input) *plan.Built {
	return plan.BuildTree(in.cat, in.conj, plan.Bushy(numSources), plan.Options{
		Window: window, Mode: w.coreMode(), NoStateIndex: !w.indexed,
	})
}

// identity mirrors serve.Config.identity, the config string a checkpoint
// carries, so the mirrored checkpoints have the server's size.
func (w workload) identity() string {
	return fmt.Sprintf("n=%d shape=%s window=%d mode=%v indexed=%t band=%d",
		numSources, plan.Bushy(numSources).Canonical(), window, w.coreMode(), w.indexed, 0)
}

// tupleOf converts a decoded frame as serve's session does.
func tupleOf(f serve.Frame) *stream.Tuple {
	vals := make([]stream.Value, len(f.Vals))
	for i, v := range f.Vals {
		vals[i] = stream.Value(v)
	}
	return &stream.Tuple{ID: f.ID, Source: stream.SourceID(f.Source), TS: stream.Time(f.TS), Vals: vals}
}

// tapMirror keeps what serve's delivery tap and hub keep for a checkpoint:
// the dedup seed (key → oldest constituent timestamp) and the last `retain`
// deliveries.
type tapMirror struct {
	seen map[string]stream.Time
	ring []checkpoint.TailEntry
	seq  uint64
}

func newTapMirror() *tapMirror {
	return &tapMirror{seen: make(map[string]stream.Time), ring: make([]checkpoint.TailEntry, retain)}
}

func (t *tapMirror) consume(c *stream.Composite) {
	k := c.Key()
	t.seen[k] = c.MinTS
	t.seq++
	t.ring[t.seq%retain] = checkpoint.TailEntry{Seq: t.seq, TS: c.TS, Key: k}
}

// tail copies the retained deliveries, oldest first.
func (t *tapMirror) tail() []checkpoint.TailEntry {
	n := t.seq
	if n > retain {
		n = retain
	}
	out := make([]checkpoint.TailEntry, 0, n)
	for s := t.seq - n + 1; s <= t.seq; s++ {
		out = append(out, t.ring[s%retain])
	}
	return out
}

// seed prunes keys no replay can rebuild and returns the survivors.
func (t *tapMirror) seed(cut stream.Time) []checkpoint.DeliveredKey {
	var out []checkpoint.DeliveredKey
	for k, ts := range t.seen {
		if ts+window <= cut {
			delete(t.seen, k)
			continue
		}
		out = append(out, checkpoint.DeliveredKey{MinTS: ts, Key: k})
	}
	return out
}

// ckptStats is what the mirrored checkpointer measured.
type ckptStats struct {
	count                     int
	bytes                     []float64
	planSnapUS                []float64
	encodeUS, saveUS          []float64
	stallNS                   int64 // snapshot + save, summed: what the engine goroutine waits
	decodeUS, recoverMS       float64
	replayUSPerRow            float64
	recovered                 bool
	err                       error
	excludedNS                int64 // harness-only work inside Migrate, taken out of the arrival's service time
	lastTS                    stream.Time
	started                   bool
	next                      stream.Time
	hwm, pending, recoverFrom uint64
}

// ckptMirror implements engine.Reoptimizer as serve's checkpointer does: it
// never migrates, but a true Decide makes the engine drain to the cut, and
// Migrate then performs and times snapshot → Store.Save. Encode is timed on
// its own as well, and once, mid-stream, the newest checkpoint is recovered
// into a fresh plan; both are harness-only and excluded from service time.
type ckptMirror struct {
	r   *replay
	st  *checkpoint.Store
	tap *tapMirror
	ckptStats
}

func (c *ckptMirror) Attach(*plan.Built) {}

func (c *ckptMirror) Decide(t *stream.Tuple, _ *plan.Built) bool {
	c.hwm, c.pending, c.lastTS = c.pending, t.ID, t.TS
	if !c.started {
		c.started, c.next = true, t.TS+window
		return false
	}
	return t.TS >= c.next
}

func (c *ckptMirror) Migrate(cut stream.Time, b *plan.Built) *plan.Built {
	c.save(cut, b)
	for c.next <= cut {
		c.next += window
	}
	if !c.recovered && c.pending >= c.recoverFrom && c.err == nil {
		c.recovered = true
		start := c.r.now()
		c.recover()
		c.excludedNS += c.r.now() - start
	}
	return nil
}

func (c *ckptMirror) save(cut stream.Time, b *plan.Built) {
	r := c.r
	t0 := r.now()
	sp := r.tr.begin("ckpt.snapshot", r.cur, c.pending)
	tail := c.tap.tail()
	keys := c.tap.seed(cut)
	t1 := r.now()
	rows := b.SnapshotInWindow(cut)
	t2 := r.now()
	r.tr.end(sp)
	ck := &checkpoint.Checkpoint{
		Cut: cut, IngestHWM: c.hwm, Delivered: c.tap.seq, Config: r.w.identity(),
		Keys: keys, Tail: tail, Rows: rows,
	}
	sp = r.tr.begin("ckpt.encode", r.cur, c.pending)
	data := checkpoint.Encode(ck)
	t3 := r.now()
	r.tr.end(sp)
	sp = r.tr.begin("ckpt.save", r.cur, c.pending)
	_, err := c.st.Save(ck)
	t4 := r.now()
	r.tr.end(sp)
	if err != nil && c.err == nil {
		c.err = err
	}
	c.count++
	c.bytes = append(c.bytes, float64(len(data)))
	c.planSnapUS = append(c.planSnapUS, float64(t2-t1)/1e3)
	c.encodeUS = append(c.encodeUS, float64(t3-t2)/1e3)
	c.saveUS = append(c.saveUS, float64(t4-t3)/1e3)
	c.stallNS += (t2 - t0) + (t4 - t3)
	// Store.Save encodes again itself, as it does in the server; the
	// separate Encode above exists only to be timed.
	c.excludedNS += t3 - t2
}

// recover times what a restart pays: newest checkpoint → Decode → replay of
// its rows into a fresh plan.
func (c *ckptMirror) recover() {
	r := c.r
	t0 := r.now()
	ck, path, err := c.st.Latest()
	t1 := r.now()
	if err != nil || ck == nil {
		c.err = fmt.Errorf("recover: no checkpoint to load: %v", err)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		c.err = fmt.Errorf("recover: %w", err)
		return
	}
	t2 := r.now()
	if _, err := checkpoint.Decode(data); err != nil {
		c.err = fmt.Errorf("recover: %w", err)
		return
	}
	t3 := r.now()
	replayNS := r.w.timeReplay(r.in, ck.Rows)
	c.decodeUS = float64(t3-t2) / 1e3
	c.recoverMS = float64(t1-t0+replayNS) / 1e6
	if len(ck.Rows) > 0 {
		c.replayUSPerRow = float64(replayNS) / 1e3 / float64(len(ck.Rows))
	}
}

// discard swallows the results a replay regenerates, as the seeded tap does.
type discard struct{}

func (discard) Consume(*stream.Composite, operator.Port) {}

// timeReplay replays snapshot rows into a fresh plan, as recovery does, and
// returns the wall time of plan.ReplayInWindow.
func (w workload) timeReplay(in *input, rows []*stream.Tuple) int64 {
	b := w.buildPlan(in)
	b.RootJoin().SetConsumer(discard{}, operator.Left)
	for _, j := range b.Joins {
		j.SetExact(true)
	}
	start := time.Now()
	b.ReplayInWindow(rows)
	return time.Since(start).Nanoseconds()
}

// stamp is the harness consumer spliced in front of the sink: it stamps each
// final against the pull of its newest constituent, samples composites for
// the Key measurement, feeds the tap mirror on a durable workload, and
// forwards to the sink.
type stamp struct {
	r      *replay
	sink   *operator.Sink
	tap    *tapMirror
	lat    []int64
	finals int
	sample []*stream.Composite
}

// keySampleEvery and keySampleMax bound the composites kept for timing
// Composite.Key after the run.
const (
	keySampleEvery = 8
	keySampleMax   = 1 << 16
)

func (s *stamp) Consume(c *stream.Composite, p operator.Port) {
	r := s.r
	var newest uint64
	for _, t := range c.Comps {
		if t != nil && t.ID > newest {
			newest = t.ID
		}
	}
	s.lat = append(s.lat, r.now()-r.pulled[newest-1])
	if s.finals%keySampleEvery == 0 && len(s.sample) < keySampleMax {
		s.sample = append(s.sample, c)
	}
	s.finals++
	sp := r.tr.begin("sink.consume", r.cur, newest)
	if s.tap != nil {
		s.tap.consume(c)
	}
	s.sink.Consume(c, p)
	r.tr.end(sp)
}

// replay is one in-process run over the recorded frames.
type replay struct {
	w      workload
	in     *input
	n      int
	tr     *tracer // nil for the untraced run
	origin time.Time

	tuples  []*stream.Tuple // untraced: decoded up front; traced: decoded in next
	pulled  []int64         // when arrival i was handed to the engine
	service []int64         // engine time spent on arrival i
	cur     int32           // the open engine.arrival (or engine.drain) span
	drainNS int64
	totalNS int64 // Σ service + drain (+ the durable workload's final checkpoint)
	res     engine.Result
	st      *stamp
	ck      *ckptMirror

	planBuildUS              float64
	snapshotUS, replayUSPRow float64 // mid-stream snapshot/replay, non-durable workloads
	allocBytes, allocs       uint64
	gcFraction               float64
	heapEndMB                float64
	keyNS                    float64 // Composite.Key over the sampled finals
}

func (r *replay) now() int64 { return int64(time.Since(r.origin)) }

// run drives engine.RunStream through the next callback. The interval from
// one next return to the following next call is that arrival's service time.
func (r *replay) run(ckDir string) error {
	w, n := r.w, r.n
	start := time.Now()
	b := w.buildPlan(r.in)
	r.planBuildUS = us(time.Since(start))
	r.st = &stamp{r: r, sink: b.Sink}
	b.RootJoin().SetConsumer(r.st, operator.Left)
	opts := engine.Options{Drain: true}
	if w.durable {
		os.RemoveAll(ckDir) //nolint:errcheck // OpenStore reports a directory it cannot use
		st, err := checkpoint.OpenStore(ckDir, 0)
		if err != nil {
			return err
		}
		defer os.RemoveAll(ckDir) //nolint:errcheck // best-effort cleanup of benchmark output
		r.st.tap = newTapMirror()
		r.ck = &ckptMirror{r: r, st: st, tap: r.st.tap}
		// The recovery measurement belongs to the untraced run.
		r.ck.recoverFrom, r.ck.recovered = uint64(n/2), r.tr != nil
		opts.Reopt = r.ck
	}
	eng := engine.NewWithOptions(b, opts)
	r.pulled = make([]int64, n)
	r.service = make([]int64, n)
	r.cur = -1

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()

	i := 0
	var lastReturn, excluded0 int64
	r.origin = time.Now()
	r.tr.reset(r.origin)
	next := func() (*stream.Tuple, bool) {
		now := r.now()
		if i > 0 {
			r.tr.end(r.cur)
			r.service[i-1] = now - lastReturn
			if r.ck != nil {
				r.service[i-1] -= r.ck.excludedNS - excluded0
				excluded0 = r.ck.excludedNS
			}
		}
		if i == n {
			r.cur = r.tr.begin("engine.drain", -1, 0)
			lastReturn = r.now()
			return nil, false
		}
		if i == n/2 && r.tr == nil && !w.durable {
			// Between arrivals the plan is quiescent: time the snapshot cut
			// and its replay here, outside any arrival's service time.
			s0 := time.Now()
			rows := b.SnapshotInWindow(r.tuples[i].TS)
			r.snapshotUS = us(time.Since(s0))
			if len(rows) > 0 {
				r.replayUSPRow = float64(w.timeReplay(r.in, rows)) / 1e3 / float64(len(rows))
			}
		}
		var t *stream.Tuple
		if r.tr != nil {
			sp := r.tr.begin("decode", -1, uint64(i+1))
			f, err := serve.DecodeFrame(bytes.TrimSuffix(r.in.frame(i), []byte("\n")))
			r.tr.end(sp)
			if err != nil {
				panic(err) // the harness rendered this frame itself
			}
			t = tupleOf(f)
		} else {
			t = r.tuples[i]
		}
		i++
		r.cur = r.tr.begin("engine.arrival", -1, t.ID)
		lastReturn = r.now()
		r.pulled[i-1] = lastReturn
		return t, true
	}
	r.res = eng.RunStream(next)
	end := r.now()
	r.tr.end(r.cur)
	r.cur = -1
	r.drainNS = end - lastReturn
	for _, s := range r.service {
		r.totalNS += s
	}
	r.totalNS += r.drainNS
	if r.ck != nil {
		// serve's checkpointer writes one more checkpoint after the drain,
		// before the subscribers see eos.
		r.ck.hwm = r.ck.pending
		f0, x0 := r.now(), r.ck.excludedNS
		r.ck.save(r.ck.lastTS+window, b)
		r.totalNS += r.now() - f0 - (r.ck.excludedNS - x0)
	}

	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&m1)
	r.allocBytes, r.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	if cpu1 > cpu0 {
		r.gcFraction = (gc1 - gc0) / (cpu1 - cpu0)
	}
	// Time Composite.Key and drop the sampled composites before looking at
	// what the run retains: they are the harness's, not the engine's.
	r.keyNS = keyNS(r.st.sample)
	r.st.sample = nil
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	r.heapEndMB = (float64(m2.HeapInuse) - float64(m0.HeapInuse)) / (1 << 20)
	runtime.KeepAlive(b)
	if r.ck != nil && r.ck.err != nil {
		return r.ck.err
	}
	return nil
}

// gcCPU reads the runtime's cumulative GC and busy CPU seconds. The runtime's
// "total" is GOMAXPROCS × wall, so idle time is taken out of it.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, v := range s {
		if v.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// decodeStats times serve.DecodeFrame over the recorded frames.
type decodeStats struct {
	nsPerFrame, allocsPerFrame, bytesPerFrame float64
}

// decodeAll decodes every recorded frame, timing the decode alone, and
// returns the tuples the replay feeds the engine.
func decodeAll(in *input, n int) ([]*stream.Tuple, decodeStats, error) {
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = bytes.TrimSuffix(in.frame(i), []byte("\n"))
	}
	frames := make([]serve.Frame, n)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, l := range lines {
		f, err := serve.DecodeFrame(l)
		if err != nil {
			return nil, decodeStats{}, fmt.Errorf("recorded frame %d does not decode: %w", i, err)
		}
		frames[i] = f
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	tuples := make([]*stream.Tuple, n)
	for i, f := range frames {
		tuples[i] = tupleOf(f)
	}
	fn := float64(n)
	return tuples, decodeStats{
		nsPerFrame:     float64(elapsed.Nanoseconds()) / fn,
		allocsPerFrame: float64(m1.Mallocs-m0.Mallocs) / fn,
		bytesPerFrame:  float64(m1.TotalAlloc-m0.TotalAlloc) / fn,
	}, nil
}

// keyNS times Composite.Key over the composites sampled during the replay.
func keyNS(sample []*stream.Composite) float64 {
	if len(sample) == 0 {
		return 0
	}
	var sink int
	start := time.Now()
	for _, c := range sample {
		sink += len(c.Key())
	}
	elapsed := time.Since(start)
	runtime.KeepAlive(sink)
	return float64(elapsed.Nanoseconds()) / float64(len(sample))
}

// probeOverheads measures, on a prefix of the stream and against a plain
// replay of the same prefix, what a nil-sink obs.Tracer costs (percent) and
// what the reorder stage costs under 10 s of bounded disorder (µs/arrival).
// Each variant runs three times, alternating, and the fastest run counts.
func (w workload) probeOverheads(in *input, tuples []*stream.Tuple, seed int64) (tracerPct, reorderUS float64) {
	const bound = 10 * stream.Second
	prefix := tuples[:len(tuples)/5]
	iter := func() func() (*stream.Tuple, bool) {
		i := 0
		return func() (*stream.Tuple, bool) {
			if i == len(prefix) {
				return nil, false
			}
			i++
			return prefix[i-1], true
		}
	}
	variants := []func() time.Duration{
		func() time.Duration { // plain
			e := engine.NewWithOptions(w.buildPlan(in), engine.Options{Drain: true})
			start := time.Now()
			e.RunStream(iter())
			return time.Since(start)
		},
		func() time.Duration { // nil-sink tracer, as BENCH_obs measured it
			b := w.buildPlan(in)
			b.SetTrace(obs.New(obs.Options{SampleEvery: 10 * stream.Second}))
			e := engine.NewWithOptions(b, engine.Options{Drain: true})
			start := time.Now()
			e.RunStream(iter())
			return time.Since(start)
		},
		func() time.Duration { // bounded disorder through the reorder stage
			e := engine.NewWithOptions(w.buildPlan(in), engine.Options{Drain: true, Disorder: bound})
			src := source.Disordered(iter(), bound, seed)
			start := time.Now()
			e.RunStream(src)
			return time.Since(start)
		},
	}
	best := make([]time.Duration, len(variants))
	for round := 0; round < 3; round++ {
		for v, run := range variants {
			if d := run(); round == 0 || d < best[v] {
				best[v] = d
			}
		}
	}
	plain := float64(best[0])
	return (float64(best[1]) - plain) / plain * 100, us(best[2]-best[0]) / float64(len(prefix))
}

// layers runs the untraced and the traced replay of the peak pass's frames
// and fills the per-layer metrics that come from them. peakWallUS is the
// peak pass's wall time per arrival, for the residual.
func (w workload) layers(in *input, n int, seed int64, outDir string, peak exit, peakWallUS float64, rep *report) error {
	m := rep.metrics
	tuples, dec, err := decodeAll(in, n)
	if err != nil {
		return err
	}
	ckDir := filepath.Join(outDir, "ck-"+w.name+"-replay")
	plainRun := &replay{w: w, in: in, n: n, tuples: tuples}
	if err := plainRun.run(ckDir); err != nil {
		return err
	}
	// The traced replay covers the first half of the stream: long enough for
	// the trace and the self times, and its overhead is read against the
	// same arrivals of the untraced replay.
	traced := &replay{w: w, in: in, n: n / 2, tr: &tracer{}}
	if err := traced.run(ckDir); err != nil {
		return err
	}
	if err := traced.tr.writeChrome(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return err
	}

	r, c, fn := plainRun, plainRun.res.Counters, float64(n)
	if r.res.CostUnits != peak.cost || uint64(r.res.Arrivals) != peak.arrivals || r.res.Results != peak.delivered {
		return fmt.Errorf("replay is not the served path: replay cost=%d arrivals=%d results=%d, server cost=%d arrivals=%d delivered=%d",
			r.res.CostUnits, r.res.Arrivals, r.res.Results, peak.cost, peak.arrivals, peak.delivered)
	}
	per := func(v uint64) float64 { return float64(v) / fn }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	engineUS := float64(r.totalNS) / 1e3 / fn

	m["serve.decode_ns_per_frame"] = dec.nsPerFrame
	m["serve.decode_allocs_per_frame"] = dec.allocsPerFrame
	m["serve.decode_bytes_per_frame"] = dec.bytesPerFrame
	m["serve.path_overhead_us_per_arrival"] = peakWallUS - dec.nsPerFrame/1e3 - engineUS

	svc := make([]float64, n)
	for i, s := range r.service {
		svc[i] = float64(s) / 1e3
	}
	m["engine.us_per_arrival"] = engineUS
	m["engine.late_early_ratio"] = mean(svc[n*3/4:]) / mean(svc[n/4:n/2])
	sort.Float64s(svc)
	m["engine.arrival_us_p50"], _ = percentile(svc, 0.50)
	m["engine.arrival_us_p99"], _ = percentile(svc, 0.99)
	m["engine.arrival_us_max"] = svc[n-1]
	m["engine.drain_ms"] = float64(r.drainNS) / 1e6
	lat := make([]float64, len(r.st.lat))
	for i, l := range r.st.lat {
		lat[i] = float64(l) / 1e3
	}
	sort.Float64s(lat)
	m["engine.result_latency_us_p50"], _ = percentile(lat, 0.50)
	m["engine.result_latency_us_p99"], _ = percentile(lat, 0.99)
	m["engine.sweeps_per_arrival"] = per(c.Sweeps)
	m["engine.alloc_bytes_per_arrival"] = per(r.allocBytes)
	m["engine.allocs_per_arrival"] = per(r.allocs)
	m["engine.gc_cpu_fraction"] = r.gcFraction
	m["engine.heap_end_mb"] = r.heapEndMB
	m["engine.accounted_peak_kb"] = r.res.PeakMemKB
	m["engine.ns_per_cost_unit"] = float64(r.totalNS) / float64(r.res.CostUnits)

	m["core.mns_detected_per_arrival"] = per(c.MNSDetected)
	m["core.suspended_per_arrival"] = per(c.Suspended)
	m["core.resumed_per_arrival"] = per(c.Resumed)
	m["core.suppressed_pairs_per_arrival"] = per(c.SuppressedPairs)
	m["core.catchup_joins_per_arrival"] = per(c.CatchUpJoins)
	m["core.final_per_result"] = ratio(c.FinalResults, c.Results)
	m["core.suspend_payback"] = ratio(c.SuppressedPairs, c.Suspended)
	m["lattice.nodes_per_arrival"] = per(c.LatticeNodes)
	m["feedback.msgs_per_arrival"] = per(c.Feedbacks)
	m["state.probes_per_arrival"] = per(c.Probes)
	m["state.comparisons_per_arrival"] = per(c.Comparisons)
	m["state.inserted_per_arrival"] = per(c.Inserted)
	m["state.purged_per_arrival"] = per(c.Purged)
	m["state.match_ratio"] = ratio(c.Results, c.Comparisons)
	m["operator.queue_ops_per_arrival"] = per(c.QueueOps)

	self := traced.tr.selfByName()
	rep.selfTimes = self
	if k := self["sink.consume"]; k.count > 0 {
		m["operator.sink_us_per_result"] = float64(k.selfNS) / 1e3 / float64(k.count)
	}
	m["stream.key_ns_per_result"] = r.keyNS
	m["plan.build_us"] = r.planBuildUS
	m["plan.snapshot_us"] = r.snapshotUS
	m["plan.replay_us_per_row"] = r.replayUSPRow
	var tracedNS, plainNS int64
	for i, t := range traced.service {
		tracedNS += t
		plainNS += r.service[i]
	}
	m["bench.span_overhead_pct"] = float64(tracedNS-plainNS) / float64(plainNS) * 100

	if ck := r.ck; ck != nil {
		m["plan.snapshot_us"] = median(ck.planSnapUS)
		m["plan.replay_us_per_row"] = ck.replayUSPerRow
		m["checkpoint.count"] = float64(ck.count)
		m["checkpoint.bytes"] = median(ck.bytes)
		m["checkpoint.encode_us"] = median(ck.encodeUS)
		m["checkpoint.save_us"] = median(ck.saveUS)
		m["checkpoint.decode_us"] = ck.decodeUS
		m["checkpoint.stall_us_per_arrival"] = float64(ck.stallNS) / 1e3 / fn
		m["checkpoint.recover_ms"] = ck.recoverMS
		if uint64(ck.count) != peak.checkpoints {
			return fmt.Errorf("replay wrote %d checkpoints, the server %d: the mirror is not the served path", ck.count, peak.checkpoints)
		}
	}
	if w.probes {
		m["obs.tracer_overhead_pct"], m["engine.reorder_us_per_arrival"] = w.probeOverheads(in, tuples, seed)
	}
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
