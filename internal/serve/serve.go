// Package serve is the network front-end of the repository (DESIGN.md §10):
// a long-running server that accepts base tuples over NDJSON-over-TCP
// (protocol.go), feeds them through engine.ChanSource into a single live
// plan, streams final results back to subscriber connections through a
// bounded delivery ring (hub.go), and — when given a checkpoint directory —
// periodically makes the §7 snapshot cut durable (internal/checkpoint) so a
// killed server restarts into exactly the state it checkpointed, resuming
// exactly-once past the recovered high-water marks.
//
// # Recovery protocol
//
// Open loads the newest valid checkpoint (corrupt files fall back to their
// predecessor), refuses it if its config identity differs from the server's,
// rebuilds the plan, seeds the dedup gate with the checkpoint's delivered keys
// and the deliverer with its delivery sequence, replays the checkpoint rows
// (plan.ReplayInWindow),
// and starts the engine with the ingest HWM as the resume mark. The ingest
// greeting then tells the client to resume past the HWM (re-sent IDs at or
// below it are skipped as recovery replays), and the subscriber greeting
// carries the incarnation's delivery floor — the committed sequence minus
// the restored ring tail; deliveries at or below the floor are gone for
// good, while committed-but-unread deliveries inside the tail remain
// re-readable exactly as they were from the live ring (clients dedup by
// sequence number). Everything the pre-crash server did after its last
// checkpoint is regenerated deterministically from the replayed state plus
// the client's re-sent arrivals — the crash-equivalence property the
// kill-point harness (crash_test.go) pins in every mode.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/tcp"
)

// ErrCrashed is returned by Wait when the engine died at an armed kill point
// (the in-process crash harness) instead of reaching end-of-stream.
var ErrCrashed = fmt.Errorf("serve: engine crashed before end of stream")

// Config describes one server instance: the query it runs and how it serves.
type Config struct {
	// N, Bushy, Window, Mode, Indexed and Band define the query exactly as
	// the jitrun flags of the same names do: an N-source clique (predicate.
	// Clique) under the Table II bushy or left-deep shape.
	N       int
	Bushy   bool
	Window  stream.Time
	Mode    core.Mode
	Indexed bool
	Band    stream.Value
	// Disorder admits bounded out-of-timestamp-order ingest (DESIGN.md §8).
	// Incompatible with a checkpoint directory: the reorder buffer sits
	// between the ingest HWM and the plan, so a durable cut cannot name the
	// covered prefix by a single ID.
	Disorder stream.Time

	// Addr is the TCP listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Dir, when non-empty, enables durability: checkpoints are written there
	// and the newest valid one is recovered on Open.
	Dir string
	// Every is the checkpoint interval in application time; zero means one
	// window.
	Every stream.Time
	// Keep bounds checkpoint retention (checkpoint.OpenStore; zero means 2).
	Keep int
	// MaxPending is the ingest channel buffer — arrivals admitted but not
	// yet processed; zero means 1024. Beyond it the ingest connection blocks
	// (TCP backpressure).
	MaxPending int
	// Retain bounds the delivery ring (hub): the most deliveries it keeps
	// for resuming subscribers, and what a SubBlock subscriber may fall
	// behind before the engine waits; zero means 16384. The ring grows to
	// the bound only as deliveries fill it.
	Retain int
	// Policy decides what happens to subscribers that cannot keep up:
	// SubBlock (default) stalls the engine — and transitively ingest — until
	// they drain; SubKick disconnects them.
	Policy SubPolicy
	// KeepResults retains every delivered composite in the sink (tests).
	KeepResults bool
	// Trace attaches an observability tracer to the plan (DESIGN.md §9) —
	// the jitserver ops endpoint and the backpressure memory-bound tests
	// hang off it. Nil leaves observation disabled.
	Trace *obs.Tracer

	// killPoint is the in-process crash harness's hook, set only by
	// crash_test.go: the checkpointer consults it at every arrival and after
	// every checkpoint, with the arriving tuple's ID and the number of
	// checkpoints this incarnation has written, and dies when it says so.
	killPoint func(arriving uint64, checkpoints int) bool
}

// Validate rejects configurations the server cannot serve correctly.
func (c Config) Validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("serve: need at least 2 sources (N=%d)", c.N)
	case c.N > stream.MaxSources:
		return fmt.Errorf("serve: at most %d sources fit a source set (N=%d)", stream.MaxSources, c.N)
	case c.Window <= 0:
		return fmt.Errorf("serve: window must be positive (window=%v)", c.Window)
	case c.Addr == "":
		return fmt.Errorf("serve: listen address required")
	case c.Band < 0:
		return fmt.Errorf("serve: band tolerance cannot be negative (%d)", c.Band)
	case c.Disorder < 0:
		return fmt.Errorf("serve: disorder bound cannot be negative (%v)", c.Disorder)
	case c.Dir != "" && c.Disorder > 0:
		return fmt.Errorf("serve: checkpointing requires in-order ingest (disorder=%v): the reorder buffer would sit outside the durable cut", c.Disorder)
	case c.Every < 0:
		return fmt.Errorf("serve: checkpoint interval cannot be negative (%v)", c.Every)
	case c.Every > 0 && c.Dir == "":
		return fmt.Errorf("serve: checkpoint interval set but no checkpoint dir")
	case c.Keep < 0:
		return fmt.Errorf("serve: checkpoint retention cannot be negative (%d)", c.Keep)
	case c.MaxPending < 0:
		return fmt.Errorf("serve: ingest buffer cannot be negative (%d)", c.MaxPending)
	case c.Retain < 0:
		return fmt.Errorf("serve: delivery ring size cannot be negative (%d)", c.Retain)
	case c.Policy != SubBlock && c.Policy != SubKick:
		return fmt.Errorf("serve: unknown subscriber policy %d", int(c.Policy))
	}
	if err := engine.CheckTimeRange(c.Window, c.Disorder); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if _, err := tcp.ParseAddr(c.Addr); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// identity is the config string stored in checkpoints: restore refuses a
// checkpoint taken under a different query — replaying its rows into this
// plan would silently build wrong state. It is an explicit, versioned field
// list, so deleting or reordering a struct field cannot move it; a query field
// added to Config must be added here under a new version
// (TestConfigIdentityPinned fails until someone decides). The typeII,
// generalize, propagate and ignoreFeedback terms follow from the detection
// strategy; they stay so that checkpoints already on disk still restore.
func (c Config) identity() string {
	m := c.Mode
	return fmt.Sprintf("jitserve-config/2 n=%d shape=%s window=%d detect=%s typeII=%t generalize=%t propagate=%t ignoreFeedback=false indexed=%t band=%d",
		c.N, plan.TableII(c.N, c.Bushy).Canonical(), c.Window,
		m, m == core.JIT(), m == core.JIT() || m == core.BloomJIT(), m != core.REF(), c.Indexed, c.Band)
}

// RecoveryInfo describes one recovery performed by Open.
type RecoveryInfo struct {
	Path      string        // checkpoint file restored
	Cut       stream.Time   // its snapshot cut
	Rows      int           // in-window rows replayed
	Keys      int           // dedup seed entries
	Tail      int           // delivery-ring entries restored for re-reads
	IngestHWM uint64        // resume mark handed to ingest clients
	Delivered uint64        // committed delivery sequence
	Elapsed   time.Duration // wall time of decode + replay
}

// Stats is a post-run summary (valid after Wait returns).
type Stats struct {
	Delivered   uint64 // total deliveries, committed prefix included
	ReplayDups  uint64 // recovery regenerations absorbed by the dedup gate
	Checkpoints int    // checkpoints written this incarnation
	Skipped     uint64 // recovery replay frames skipped by ingest sessions
	SaveErr     error  // first checkpoint save failure, if any
}

// Server is one running instance.
type Server struct {
	cfg Config
	b   *plan.Built
	lis *tcp.Listener
	srv *tcp.Server
	hub *hub
	out *deliverer
	// gate is the recovery dedup gate in front of out; nil without a
	// checkpoint directory, where nothing can be replayed.
	gate *operator.Dedup
	dups uint64 // recovery regenerations the gate absorbed
	st   *checkpoint.Store
	ckp  *checkpointer
	ch   chan *stream.Tuple

	recovery *RecoveryInfo
	done     chan struct{}

	mu           sync.Mutex
	cond         *sync.Cond // signals ingest-session release (Shutdown waits)
	stopping     bool
	ingestActive bool
	skipped      uint64 // recovery replays skipped, summed at each session's release
	eosSeen      bool
	crashed      bool
	res          engine.Result

	// sess is the one ingest session of the server's lifetime: the connection
	// that holds ingestActive borrows it, so the ID and timestamp watermarks
	// carry over from one writer to the next without being copied.
	sess session
	// hwm publishes sess.lastID — the highest tuple ID admitted to the engine
	// — to readers outside the borrowing connection.
	hwm atomic.Uint64
}

// Bounds on the connections (DESIGN.md §10, "Connections"): at most maxConns
// open at once, and each one's role line within headTimeout of its accept.
const maxConns = 1024

// headTimeout is a variable so a test can shorten it; Open reads it once.
var headTimeout = 10 * time.Second

// Open builds the plan, recovers the newest checkpoint (when Dir is set),
// binds the listener and starts the engine. The server is serving when Open
// returns.
func Open(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := plan.Clique(cfg.N, cfg.Bushy, cfg.Band, plan.Options{
		Window: cfg.Window, Mode: cfg.Mode, NoStateIndex: !cfg.Indexed,
		KeepResults: cfg.KeepResults,
	})
	cat := b.Catalog
	s := &Server{
		cfg:  cfg,
		b:    b,
		done: make(chan struct{}),
		sess: session{
			numSources: cat.NumSources(),
			arity:      func(id stream.SourceID) int { return cat.Source(id).NumCols() },
			disorder:   cfg.Disorder,
		},
	}
	s.cond = sync.NewCond(&s.mu)
	var ck *checkpoint.Checkpoint
	var ckPath string
	if cfg.Dir != "" {
		st, err := checkpoint.OpenStore(cfg.Dir, cfg.Keep)
		if err != nil {
			return nil, err
		}
		s.st = st
		if ck, ckPath, err = st.Latest(); err != nil {
			return nil, err
		}
		if ck != nil && ck.Config != cfg.identity() {
			return nil, fmt.Errorf("serve: checkpoint %s config mismatch: server %q, checkpoint %q",
				ckPath, cfg.identity(), ck.Config)
		}
	}
	var resumeID, resumeSeq uint64
	var seed []checkpoint.DeliveredKey
	var tail []Delivery
	if ck != nil {
		if err := s.sess.checkRestore(ck); err != nil {
			return nil, fmt.Errorf("serve: checkpoint %s: %w", ckPath, err)
		}
		resumeID, resumeSeq, seed, tail = ck.IngestHWM, ck.Delivered, ck.Keys, ck.Tail
		// The restored delivery tail must be contiguous and end exactly at
		// the committed mark, or the ring seed would lie about sequence
		// numbers.
		base := resumeSeq - uint64(len(tail))
		for i, d := range tail {
			if d.Seq != base+uint64(i)+1 {
				return nil, fmt.Errorf("serve: checkpoint %s delivery tail is not contiguous at seq %d", ckPath, d.Seq)
			}
		}
	}
	s.hub = newHub(cfg.Retain, cfg.Policy, resumeSeq, tail)
	s.out = &deliverer{sink: b.Sink, hub: s.hub, seq: resumeSeq}
	var root operator.Consumer = s.out
	if s.st != nil {
		// Only a checkpoint recovery replays rows under the deliverer; with
		// no store there is nothing a delivered key could ever absorb.
		s.gate = operator.NewDedup(s.out, &s.dups)
		for _, k := range seed {
			s.gate.Seed(k.Key, k.MinTS)
		}
		root = s.gate
	}
	b.RootJoin().SetConsumer(root, operator.Left)
	if cfg.Trace != nil {
		// Attached before the replay, so recovery work is visible in the
		// trace like migration replays are (DESIGN.md §9).
		b.SetTrace(cfg.Trace)
	}
	// Exact-delivery before the replay: the server always drains, and the
	// replayed state must be the state an exact-mode run would hold.
	b.SetExact(true)
	if ck != nil {
		start := time.Now() //jitlint:allow wallclock RecoveryInfo.Elapsed is an operator-facing latency report; replayed state is clock-independent
		b.ReplayInWindow(ck.Rows)
		s.recovery = &RecoveryInfo{
			Path: ckPath, Cut: ck.Cut, Rows: len(ck.Rows), Keys: len(ck.Keys),
			Tail: len(ck.Tail), IngestHWM: resumeID, Delivered: resumeSeq,
			Elapsed: time.Since(start), //jitlint:allow wallclock RecoveryInfo.Elapsed is an operator-facing latency report; replayed state is clock-independent
		}
		// Every delivery the replay regenerated was committed pre-crash and
		// absorbed by the seeded gate; the sequence must not have advanced.
		if s.out.seq != resumeSeq {
			return nil, fmt.Errorf("serve: recovery replay delivered %d uncommitted results — checkpoint %s is inconsistent",
				s.out.seq-resumeSeq, ckPath)
		}
		s.sess.maxTS, s.sess.started = ck.Cut, true
	}
	s.sess.lastID = resumeID
	s.hwm.Store(resumeID)
	pending := cfg.MaxPending
	if pending == 0 {
		pending = 1024
	}
	s.ch = make(chan *stream.Tuple, pending)
	opts := engine.Options{Drain: true, Disorder: cfg.Disorder}
	if s.st != nil {
		every := cfg.Every
		if every == 0 {
			every = cfg.Window
		}
		s.ckp = &checkpointer{
			st: s.st, out: s.out, gate: s.gate, window: cfg.Window,
			clock:  stream.EpochClock{Period: every},
			config: cfg.identity(), hwm: resumeID, pending: resumeID,
			// The recovered cut, so a restart that sees no further arrivals
			// still writes its final checkpoint at a sane horizon.
			lastTS: s.sess.maxTS,
			kill:   cfg.killPoint,
		}
		opts.Reopt = s.ckp
	}
	eng := engine.NewWithOptions(b, opts)
	lis, err := tcp.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.lis = lis
	go s.runLoop(eng)
	s.srv = tcp.Serve(lis, maxConns, headTimeout, s.handleConn)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.lis.Addr() }

// Recovery reports the recovery Open performed, or nil for a fresh start.
func (s *Server) Recovery() *RecoveryInfo { return s.recovery }

// runLoop drives the engine to end-of-stream on its own goroutine, recovering
// armed kill-point panics into a crashed shutdown. On a clean finish the
// listener stays open — late subscribers may still fetch the retained ring —
// until Shutdown; a crash closes it, because a crashed server is dead.
func (s *Server) runLoop(eng *engine.Engine) {
	defer close(s.done)
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errCrash) {
				s.mu.Lock()
				s.crashed = true
				s.mu.Unlock()
				s.hub.close(false, 0)
				s.lis.Close()
				return
			}
			panic(r)
		}
	}()
	res := eng.RunStream(engine.ChanSource(s.ch))
	if s.ckp != nil {
		s.ckp.finish(s.b)
	}
	s.mu.Lock()
	s.res = res
	s.mu.Unlock()
	s.hub.close(true, s.out.seq)
}

// Wait blocks until the engine finishes and returns its result; ErrCrashed
// when an armed kill point fired instead of a clean end-of-stream.
func (s *Server) Wait() (engine.Result, error) {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return engine.Result{}, ErrCrashed
	}
	return s.res, nil
}

// Stats summarizes the run; call after Wait has returned.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	skipped := s.skipped
	s.mu.Unlock()
	st := Stats{Delivered: s.out.seq, ReplayDups: s.dups, Skipped: skipped}
	if s.ckp != nil {
		st.Checkpoints = s.ckp.saved
		st.SaveErr = s.ckp.err
	}
	return st
}

// IngestHWM returns the highest tuple ID admitted to the engine so far (the
// mark a new ingest session's greeting would carry).
func (s *Server) IngestHWM() uint64 { return s.hwm.Load() }

// Shutdown stops the server: the listener closes, pending and ingest
// connections are kicked (tuples already admitted stay admitted), the ingest
// channel closes so the engine drains what it has, and in-flight subscriber
// streams run to their eos line before the handlers are reaped. Safe to call
// more than once and after the run already ended.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.stopping = true
	s.srv.Stop()
	// The ingest handler is the channel's only sender; wait for it to leave
	// before closing the channel. Cut by Stop, it exits as soon as its next
	// socket read or channel send returns.
	for s.ingestActive {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.closeIngest()
	<-s.done
	s.srv.Wait()
}

// closeIngest closes the engine's input channel exactly once. Callers must
// guarantee no ingest session is active (the eos path runs on the session's
// own handler; Shutdown waits the session out first).
func (s *Server) closeIngest() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.eosSeen {
		s.eosSeen = true
		close(s.ch)
	}
}
