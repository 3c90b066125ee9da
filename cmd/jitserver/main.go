// Command jitserver runs the continuous N-way clique query as a long-lived
// network service (DESIGN.md §10): base tuples arrive as NDJSON frames over
// TCP, final results stream back to subscriber connections, and — when a
// checkpoint directory is given — the §7 snapshot cut is made durable on a
// period so a killed server restarts into exactly the state it checkpointed
// and resumes exactly-once.
//
// Quickstart (two terminals):
//
//	jitserver -n 3 -window 1 -dir /var/lib/jitserver
//	printf '%s\n' '{"cmd":"ingest"}' '{"id":1,"source":0,"ts":1000,"vals":[7,7]}' \
//	    '{"cmd":"eos"}' | nc 127.0.0.1 4640
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jitserver: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	flags := exp.NewFlags(flag.CommandLine)
	flags.Query()
	flags.Stream(true)
	flags.Obs()
	addr := flag.String("addr", "127.0.0.1:4640", "TCP listen address for ingest and subscribe connections")
	dir := flag.String("dir", "", "checkpoint directory: enables durability and recovery (empty = in-memory only)")
	every := flag.Float64("every", 0, "checkpoint interval in minutes of application time (0 = one window; requires -dir)")
	keep := flag.Int("keep", 0, "checkpoints retained on disk (0 = 2; requires -dir)")
	maxPending := flag.Int("max-pending", 0, "ingest channel buffer: arrivals admitted but not yet processed (0 = 1024)")
	retain := flag.Int("retain", 0, "delivery ring bound: results re-readable by resuming subscribers (0 = 16384)")
	policy := flag.String("policy", "block", "slow-subscriber policy: block (backpressure to ingest) or kick (disconnect laggards)")
	flag.Parse()

	var q exp.Params
	if err := flags.Apply(&q); err != nil {
		fail("%v", err)
	}
	var pol serve.SubPolicy
	switch *policy {
	case "block":
		pol = serve.SubBlock
	case "kick":
		pol = serve.SubKick
	default:
		fail("unknown policy %q (want block or kick)", *policy)
	}

	cfg := serve.Config{
		Query:      q.Query,
		Disorder:   q.Disorder,
		Addr:       *addr,
		Dir:        *dir,
		Every:      stream.Time(*every * float64(stream.Minute)),
		Keep:       *keep,
		MaxPending: *maxPending,
		Retain:     *retain,
		Policy:     pol,
	}
	// Only the command line knows whether -obs-sample was given; every other
	// rule is serve.Config.Validate's, checked before anything binds.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "obs-sample" && q.ObsAddr == "" {
			fail("-obs-sample has no effect without -obs-addr")
		}
	})
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}

	// The ops endpoint observes the serving plan through a ring-sink tracer,
	// exactly as jitrun -obs-addr does for a batch run (DESIGN.md §9).
	stopObs := func() {}
	if q.ObsAddr != "" {
		o := flags.ObsOptions(cfg.Window)
		o.Label = "serve"
		cfg.Trace = obs.New(o)
		reg := obs.NewRegistry()
		reg.Register(cfg.Trace)
		stop, err := flags.ServeObs("jitserver", reg)
		if err != nil {
			fail("%v", err)
		}
		stopObs = stop
	}

	s, err := serve.Open(cfg)
	if err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "jitserver: serving %s mode=%s on %s\n", plan.ShapeName(cfg.Bushy), flags.Mode, s.Addr())
	if r := s.Recovery(); r != nil {
		fmt.Fprintf(os.Stderr, "jitserver: recovered %s: cut=%v rows=%d keys=%d tail=%d ingest_hwm=%d delivered=%d in %v\n",
			r.Path, r.Cut, r.Rows, r.Keys, r.Tail, r.IngestHWM, r.Delivered, r.Elapsed)
	} else if *dir != "" {
		fmt.Fprintln(os.Stderr, "jitserver: no checkpoint to recover — fresh start")
	}

	// SIGINT/SIGTERM drain the server: ingest is kicked (admitted tuples stay
	// admitted), the engine drains, subscribers read to their eos line.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "jitserver: %v — draining\n", sig)
		s.Shutdown()
	}()

	res, err := s.Wait()
	s.Shutdown() // reap handlers; no-op if the signal path already ran
	stopObs()
	if err != nil {
		fail("%v", err)
	}
	st := s.Stats()
	fmt.Printf("delivered=%d checkpoints=%d replay_dups=%d resume_skipped=%d arrivals=%d cost=%d\n",
		st.Delivered, st.Checkpoints, st.ReplayDups, st.Skipped, res.Arrivals, res.CostUnits)
	if st.SaveErr != nil {
		fail("checkpoint save failed during the run: %v", st.SaveErr)
	}
}
