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
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
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
	n := flag.Int("n", 4, "number of streaming sources")
	bushy := flag.Bool("bushy", true, "bushy plan (false = left-deep)")
	window := flag.Float64("window", 5, "window size in minutes")
	mode := flag.String("mode", "jit", "execution mode: jit, ref, doe, bloom")
	indexed := flag.Bool("indexed", false, "hash-indexed join states instead of the paper's linear scans (DESIGN.md §3)")
	band := flag.Int64("band", 0, "replace every equi-join predicate with the band predicate |l-r| <= band (DESIGN.md §8)")
	disorder := flag.Float64("disorder", 0, "admit out-of-timestamp-order ingest with delays up to this many seconds (incompatible with -dir; DESIGN.md §8)")
	addr := flag.String("addr", "127.0.0.1:4640", "TCP listen address for ingest and subscribe connections")
	dir := flag.String("dir", "", "checkpoint directory: enables durability and recovery (empty = in-memory only)")
	every := flag.Float64("every", 0, "checkpoint interval in minutes of application time (0 = one window; requires -dir)")
	keep := flag.Int("keep", 0, "checkpoints retained on disk (0 = 2)")
	maxPending := flag.Int("max-pending", 0, "ingest channel buffer: arrivals admitted but not yet processed (0 = 1024)")
	retain := flag.Int("retain", 0, "delivery ring size: results re-readable by resuming subscribers (0 = 16384)")
	policy := flag.String("policy", "block", "slow-subscriber policy: block (backpressure to ingest) or kick (disconnect laggards)")
	obsAddr := flag.String("obs-addr", "", "serve the live ops endpoint on this address: Prometheus /metrics, NDJSON /trace, /debug/pprof (DESIGN.md §9)")
	obsSample := flag.Float64("obs-sample", 0, "deterministic sampling interval for the obs time series, in seconds of stream time (0 = one window)")
	flag.Parse()

	m, err := core.ParseMode(*mode)
	if err != nil {
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
	if *every < 0 {
		fail("-every cannot be negative (minutes; 0 = one window), got %g", *every)
	}
	if *disorder < 0 {
		fail("-disorder cannot be negative (seconds), got %g", *disorder)
	}
	if *obsSample < 0 {
		fail("-obs-sample cannot be negative (seconds; 0 = one window), got %g", *obsSample)
	}

	cfg := serve.Config{
		N:          *n,
		Bushy:      *bushy,
		Window:     stream.Time(*window * float64(stream.Minute)),
		Mode:       m,
		Indexed:    *indexed,
		Band:       stream.Value(*band),
		Disorder:   stream.Time(*disorder * float64(stream.Second)),
		Addr:       *addr,
		Dir:        *dir,
		Every:      stream.Time(*every * float64(stream.Minute)),
		Keep:       *keep,
		MaxPending: *maxPending,
		Retain:     *retain,
		Policy:     pol,
	}

	// The ops endpoint observes the serving plan through a ring-sink tracer,
	// exactly as jitrun -obs-addr does for a batch run (DESIGN.md §9).
	var obsSrv *obs.Server
	if *obsAddr != "" {
		sampleEvery := cfg.Window
		if *obsSample > 0 {
			sampleEvery = stream.Time(*obsSample * float64(stream.Second))
		}
		tr := obs.New(obs.Options{
			Sink:        obs.NewRingSink(4096),
			SampleEvery: sampleEvery,
			Label:       "serve",
		})
		cfg.Trace = tr
		reg := obs.NewRegistry()
		reg.Register(tr)
		srv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			fail("%v", err)
		}
		obsSrv = srv
		fmt.Fprintf(os.Stderr, "jitserver: ops endpoint at http://%s/metrics (also /trace, /debug/pprof)\n", srv.Addr())
	}

	s, err := serve.Open(cfg)
	if err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "jitserver: serving %s mode=%s on %s\n", plan.ShapeName(*bushy), *mode, s.Addr())
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
	if obsSrv != nil {
		// Graceful: an in-flight scrape of the final snapshot completes.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		obsSrv.Shutdown(ctx) //nolint:errcheck // best-effort on exit
		cancel()
	}
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
