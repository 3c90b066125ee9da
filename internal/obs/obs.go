// Package obs is the in-flight observability substrate (DESIGN.md §9): typed
// trace events, deterministic event-time sampling, latency histograms and the
// snapshot surface the live ops endpoint serves.
//
// The package is built around one discipline: observation never participates
// in execution. A nil *Tracer is the disabled state — every method nil-checks
// its receiver and the instrumented call sites compile down to a pointer
// test — and an attached tracer only ever *reads* the measurement substrate
// (a plan's Ledger — its totals and per-operator metrics.Counters — and its
// metrics.Account); it never writes any quantity the engine measures. The
// transparency test in this package pins that byte-identical Counters come
// out of traced and untraced runs, and jitperf's traced run (bench/README.md)
// measures the residual overhead.
//
// Determinism: every event and every sample is stamped with *stream* time,
// never wall time, so trace files and sampled series are golden-testable and
// shard-mergeable. The only wall-clock quantity anywhere is the optional
// wall-latency twin histogram, which exists exactly because event time cannot
// measure host scheduling cost — it is kept out of every deterministic
// artifact.
package obs

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/stream"
)

// atomicSnapshot is the lock-free publication slot: the engine goroutine
// stores, HTTP handlers load.
type atomicSnapshot = atomic.Pointer[Snapshot]

// Kind identifies a trace event type — the event taxonomy of DESIGN.md §9.
type Kind uint8

// The event taxonomy. Engine-level events (arrival, watermark, late drop)
// carry no operator name; operator-level events (probe batch, MNS detect,
// suspend, resume, feedback) name their JoinOp; control-plane events (epoch,
// migration start/cut/done) come from the adaptive re-optimizer.
const (
	// KindArrival is one base-tuple ingestion: TS is the tuple's timestamp,
	// Value its global ID, Aux its source.
	KindArrival Kind = iota
	// KindProbeBatch is one state probe: Value is the opposite state's length
	// at probe start (the scan bound), Aux the probing input's sequence.
	KindProbeBatch
	// KindMNSDetect is one Identify_MNS report: Value is the number of MNSs
	// detected on the input.
	KindMNSDetect
	// KindSuspend is tuples moving into a blacklist: Value is the count.
	KindSuspend
	// KindResume is tuples reactivating out of a blacklist: Value is the count.
	KindResume
	// KindFeedback is one feedback message received by a producer: Note is
	// the command ("suspend" or "resume"), Value the MNS count.
	KindFeedback
	// KindWatermark is a disorder-watermark advance: TS is the new watermark
	// (max ingested timestamp minus the bound; can be negative early on).
	KindWatermark
	// KindLateDrop is a tuple dropped behind the watermark: TS is the late
	// tuple's timestamp, Value its ID, Aux the watermark that rejected it.
	KindLateDrop
	// KindEpoch is an adaptive decision-epoch boundary: Value is the epoch's
	// observed cost-unit delta.
	KindEpoch
	// KindMigrationStart opens a plan migration at the cut; Note is
	// "from -> to" in canonical shape notation.
	KindMigrationStart
	// KindMigrationCut marks the quiescent snapshot taken: Value is the
	// number of in-window base tuples snapshotted.
	KindMigrationCut
	// KindMigrationDone closes the handoff after replay: Value is the total
	// duplicate deliveries the dedup tap has absorbed so far.
	KindMigrationDone

	// NumKinds bounds the taxonomy (for counting sinks and kind masks).
	NumKinds
)

var kindNames = [NumKinds]string{
	"arrival", "probe_batch", "mns_detect", "suspend", "resume", "feedback",
	"watermark", "late_drop", "epoch", "migration_start", "migration_cut",
	"migration_done",
}

// String returns the stable snake_case name of the kind — the identifier
// used in Chrome traces, the NDJSON /trace stream and test assertions.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one typed trace event. TS is always event (stream) time; Shard is
// stamped by the emitting tracer; the meaning of Value/Aux/Note is per Kind
// (see the Kind constants).
type Event struct {
	Kind  Kind
	TS    stream.Time
	Op    string
	Shard int
	Value uint64
	Aux   int64
	Note  string
}

// Sink receives trace events. A tracer's production sink is a Recorder;
// CountingSink is the tests' cheap fake.
type Sink interface {
	Emit(Event)
}

// CountingSink counts events per kind — the cheapest non-nil sink, used by
// the conservation tests (e.g. Counters.LateDropped == late-drop events) and
// the overhead benchmark.
type CountingSink struct {
	Counts [NumKinds]uint64
}

// Emit implements Sink.
func (s *CountingSink) Emit(e Event) { s.Counts[e.Kind]++ }

// Count returns the number of events of one kind seen.
func (s *CountingSink) Count(k Kind) uint64 { return s.Counts[k] }

// Total returns the number of events seen across all kinds.
func (s *CountingSink) Total() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// TraceTail is how many events /trace serves per tracer: the last ones its
// Recorder holds. A recorder kept for /trace alone keeps no more than that.
const TraceTail = 4096

// Recorder keeps the trace events a tracer emits: every one when its limit
// is 0 (a trace file written after the run), else the last limit. It locks
// on every event, so the live /trace endpoint can read it while the engine
// is still emitting. It grows as events arrive.
type Recorder struct {
	mu  sync.Mutex
	evs ring[Event]
}

// NewRecorder creates a recorder keeping the last limit events, or every
// event when limit is 0.
func NewRecorder(limit int) *Recorder {
	if limit < 0 {
		panic("obs: recorder limit cannot be negative")
	}
	return &Recorder{evs: ring[Event]{limit: limit}}
}

// Emit implements Sink.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.evs.push(e)
	r.mu.Unlock()
}

// Last returns a copy of the newest n kept events (all of them when fewer
// are kept), oldest first.
func (r *Recorder) Last(n int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evs.last(n)
}

// Events returns a copy of every kept event, oldest first.
func (r *Recorder) Events() []Event { return r.Last(math.MaxInt) }

// ring keeps the last limit values pushed, or every value when limit is 0,
// growing as values arrive.
type ring[T any] struct {
	limit int
	buf   []T
	next  int // once len(buf) == limit: the oldest value's slot
}

func (r *ring[T]) push(v T) {
	if r.limit == 0 || len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.limit
}

// last returns a copy of the newest n values (all of them when fewer are
// kept), oldest first.
func (r *ring[T]) last(n int) []T {
	n = min(n, len(r.buf))
	out := make([]T, 0, n)
	for i := len(r.buf) - n; i < len(r.buf); i++ {
		out = append(out, r.buf[(r.next+i)%len(r.buf)])
	}
	return out
}

// Ledger is what a tracer reads of a plan's counters, without obs importing
// the plan packages (*plan.Built implements it): the plan-wide totals, which
// stay continuous across a migration, and the live operators' own ledgers in
// plan order, which start from zero each time a migration reshapes the tree.
type Ledger interface {
	Totals() metrics.Counters
	Ops() []metrics.OpCounters
}

// Options configures a Tracer.
type Options struct {
	// Sink receives the typed trace events — a Recorder, outside tests; nil
	// disables event emission (sampling and latency accounting still run).
	Sink Sink
	// SampleEvery, when positive, attaches an event-time sampler with this
	// stream-time interval (DESIGN.md §9 determinism rules). Zero disables
	// sampling — and with it the live endpoint's periodic snapshots.
	SampleEvery stream.Time
	// WallLatency additionally records the wall-clock latency twin histogram.
	// Wall time never enters any deterministic artifact; the twin exists for
	// live operation only.
	WallLatency bool
	// Shard stamps every event and snapshot; single-engine runs use 0.
	Shard int
	// Label names the tracer on the ops endpoint ("shard0"); empty means
	// "shard<N>".
	Label string
}

// Tracer is the per-engine observation hub: it owns the clock, the sampler,
// the latency histograms and the published snapshot. All methods are safe on
// a nil receiver — a nil *Tracer IS the disabled observability layer, and
// the instrumented call sites in core/engine/operator/adapt rely on that.
//
// A tracer is single-goroutine like the engine that drives it; the only
// cross-goroutine surface is the atomically published *Snapshot (and a
// Recorder, which locks itself). Sharded runs use one tracer per replica.
type Tracer struct {
	sink    Sink
	shard   int
	label   string
	now     stream.Time
	wallOn  bool
	wallAt  time.Time
	sampler *sampler
	lat     Histogram
	latWall Histogram

	src  Ledger
	acct *metrics.Account

	snap atomicSnapshot
}

// New creates a tracer. A nil *Tracer (not New of empty options) is the
// disabled state; New always returns an active tracer.
func New(o Options) *Tracer {
	t := &Tracer{sink: o.Sink, shard: o.Shard, label: o.Label, wallOn: o.WallLatency}
	if o.SampleEvery > 0 {
		t.sampler = newSampler(t, o.SampleEvery)
	}
	return t
}

// Bind points the tracer at a plan's measurement substrate — its Ledger and
// its Account. plan.Built.SetTrace calls it at attach time and again at each
// migration handoff. The sampler's baseline is the totals at the first
// Bind: they carry on across a migration, so a rebind keeps it. This is the
// one binding: the sampler reads the same pair.
func (t *Tracer) Bind(src Ledger, acct *metrics.Account) {
	if t == nil {
		return
	}
	if t.sampler != nil && t.src == nil {
		t.sampler.prev = src.Totals()
	}
	t.src, t.acct = src, acct
}

// Advance moves the event-time clock forward (never backward) and fires any
// sampler boundaries crossed, publishing a fresh snapshot when one was. The
// engine calls it once per arrival and once per drained deadline.
func (t *Tracer) Advance(ts stream.Time) {
	if t == nil {
		return
	}
	if ts > t.now {
		t.now = ts
	}
	if t.wallOn {
		t.wallAt = time.Now() //jitlint:allow wallclock the opt-in wall-latency twin exists to measure host scheduling; it never enters a deterministic artifact (package doc)
	}
	if t.sampler != nil && t.sampler.tick(t.now) {
		t.publish()
	}
}

// Finish closes the run: the sampler flushes its final partial interval
// (stamped at the next grid boundary, so per-shard series stay aligned) and
// the final snapshot is published.
func (t *Tracer) Finish() {
	if t == nil {
		return
	}
	if t.sampler != nil {
		t.sampler.flush()
	}
	t.publish()
}

// emit stamps and forwards one event. Callers must have nil-checked t.
func (t *Tracer) emit(e Event) {
	e.Shard = t.shard
	t.sink.Emit(e)
}

// Arrival records one base-tuple ingestion.
func (t *Tracer) Arrival(tp *stream.Tuple) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindArrival, TS: tp.TS, Value: tp.ID, Aux: int64(tp.Source)})
}

// Probe records one state probe at an operator: stateLen is the opposite
// state's length at probe start (the scan bound), seq the probing input's
// sequence number.
func (t *Tracer) Probe(op string, stateLen int, seq uint64) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindProbeBatch, TS: t.now, Op: op, Value: uint64(stateLen), Aux: int64(seq)})
}

// MNS records an Identify_MNS report of n MNSs at an operator.
func (t *Tracer) MNS(op string, n int) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindMNSDetect, TS: t.now, Op: op, Value: uint64(n)})
}

// Suspend records n tuples moving into an operator's blacklist.
func (t *Tracer) Suspend(op string, n int) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindSuspend, TS: t.now, Op: op, Value: uint64(n)})
}

// Resume records n tuples reactivating out of an operator's blacklist.
func (t *Tracer) Resume(op string, n int) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindResume, TS: t.now, Op: op, Value: uint64(n)})
}

// Feedback records one feedback message received by a producer operator.
func (t *Tracer) Feedback(op, cmd string, mnsCount int) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindFeedback, TS: t.now, Op: op, Value: uint64(mnsCount), Note: cmd})
}

// Watermark records a disorder-watermark advance to wm.
func (t *Tracer) Watermark(wm stream.Time) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindWatermark, TS: wm})
}

// LateDrop records a tuple dropped behind watermark wm.
func (t *Tracer) LateDrop(tp *stream.Tuple, wm stream.Time) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindLateDrop, TS: tp.TS, Value: tp.ID, Aux: int64(wm)})
}

// Epoch records an adaptive decision-epoch boundary with its observed
// cost-unit delta.
func (t *Tracer) Epoch(ts stream.Time, observed uint64) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindEpoch, TS: ts, Value: observed})
}

// MigrationStart records a migration opening at the cut.
func (t *Tracer) MigrationStart(cut stream.Time, note string) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindMigrationStart, TS: cut, Note: note})
}

// MigrationCut records the quiescent snapshot taken (replayed tuples).
func (t *Tracer) MigrationCut(cut stream.Time, snapshotted int, note string) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindMigrationCut, TS: cut, Value: uint64(snapshotted), Note: note})
}

// MigrationDone records the handoff completed (total dedup absorptions).
func (t *Tracer) MigrationDone(cut stream.Time, dups uint64, note string) {
	if t == nil || t.sink == nil {
		return
	}
	t.emit(Event{Kind: KindMigrationDone, TS: cut, Value: dups, Note: note})
}

// Delivery records one final result reaching the sink: the event-time
// arrival→delivery latency is the clock minus the result's timestamp (zero
// for live deliveries; positive for drain/exact-mode recoveries, the
// delivery cost PRs 2/6 fought blind). The wall twin, when enabled, measures
// from the last clock advance.
func (t *Tracer) Delivery(resultTS stream.Time) {
	if t == nil {
		return
	}
	lat := t.now - resultTS
	if lat < 0 {
		lat = 0
	}
	t.lat.Observe(uint64(lat))
	if t.wallOn {
		t.latWall.Observe(uint64(time.Since(t.wallAt))) //jitlint:allow wallclock the opt-in wall-latency twin exists to measure host scheduling; it never enters a deterministic artifact (package doc)
	}
}

// Latency returns the event-time arrival→delivery histogram (milliseconds).
func (t *Tracer) Latency() Histogram {
	if t == nil {
		return Histogram{}
	}
	return t.lat
}

// WallLatency returns the wall-clock twin histogram (nanoseconds); empty
// unless Options.WallLatency was set.
func (t *Tracer) WallLatency() Histogram {
	if t == nil {
		return Histogram{}
	}
	return t.latWall
}

// Samples returns a copy of the last maxSamples samples of the series, oldest
// first (nil without a sampler). Read it only from the engine goroutine or
// after the run; concurrent readers use Snapshot.
func (t *Tracer) Samples() []Sample {
	if t == nil || t.sampler == nil {
		return nil
	}
	return t.sampler.samples.last(maxSamples)
}

// Recorder returns the recorder the tracer emits into, or nil when its sink
// is none or another kind.
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	r, _ := t.sink.(*Recorder)
	return r
}

// Snapshot is the atomically published cross-goroutine view of one tracer —
// what the ops endpoint serves. All fields are copies; readers never touch
// engine-mutated state.
type Snapshot struct {
	Label     string
	Clock     stream.Time
	Counters  metrics.Counters
	LiveBytes int64
	PeakBytes int64
	// LiveBy splits LiveBytes by structure (metrics.Account.LiveBy), and
	// LiveByOp by operator (metrics.Account.LiveByOp).
	LiveBy   metrics.MemLedger
	LiveByOp []metrics.OpMem
	// Samples counts the samples taken, including those the series no
	// longer keeps.
	Samples int
	Latency Histogram
	WallLat Histogram
	// Ops are the live operators' running totals; Counters minus their sum
	// is the plan's run ledger. WriteProm serves them under the `op` label.
	Ops []metrics.OpCounters
}

// Snapshot returns the last published snapshot, or nil before the first
// sampler boundary (or Finish).
func (t *Tracer) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	return t.snap.Load()
}

// publish copies the current substrate into a fresh Snapshot and stores it
// atomically. Runs on the engine goroutine.
func (t *Tracer) publish() {
	s := &Snapshot{
		Label:   t.label,
		Clock:   t.now,
		Latency: t.lat,
		WallLat: t.latWall,
	}
	if s.Label == "" {
		s.Label = "shard" + strconv.Itoa(t.shard)
	}
	if t.src != nil {
		s.Counters, s.Ops = t.src.Totals(), t.src.Ops()
	}
	if t.acct != nil {
		s.LiveBytes = t.acct.Live()
		s.PeakBytes = t.acct.Peak()
		s.LiveBy, s.LiveByOp = t.acct.LiveBy(), t.acct.LiveByOp()
	}
	if t.sampler != nil {
		s.Samples = t.sampler.taken
	}
	t.snap.Store(s)
}
