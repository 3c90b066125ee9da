package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

func TestRingSinkWraps(t *testing.T) {
	r := NewRingSink(4)
	for i := 0; i < 6; i++ {
		r.Emit(Event{Kind: KindArrival, Value: uint64(i)})
	}
	evs, ok := r.TraceEvents()
	if !ok || len(evs) != 4 {
		t.Fatalf("got %d events, ok=%v", len(evs), ok)
	}
	for i, e := range evs {
		if e.Value != uint64(i+2) {
			t.Fatalf("event %d value=%d, want %d (oldest first)", i, e.Value, i+2)
		}
	}
}

func TestTeeSink(t *testing.T) {
	var c CountingSink
	r := NewRingSink(8)
	tee := TeeSink{&c, r}
	tee.Emit(Event{Kind: KindSuspend})
	if c.Count(KindSuspend) != 1 || c.Total() != 1 {
		t.Error("tee missed the counting branch")
	}
	if evs, ok := tee.TraceEvents(); !ok || len(evs) != 1 {
		t.Error("tee did not find the ring's event source")
	}
}

func TestMemorySinkMask(t *testing.T) {
	m := &MemorySink{Mask: MaskOf(KindEpoch, KindMigrationStart)}
	m.Emit(Event{Kind: KindArrival})
	m.Emit(Event{Kind: KindEpoch})
	m.Emit(Event{Kind: KindMigrationStart})
	if len(m.Events()) != 2 {
		t.Fatalf("mask kept %d events, want 2", len(m.Events()))
	}
}

// TestOpsEndpoint boots the live server on an ephemeral port and checks the
// whole surface: /metrics parses under the promtext grammar with the right
// content type, /trace streams NDJSON, /healthz answers, pprof is mounted.
func TestOpsEndpoint(t *testing.T) {
	ring := NewRingSink(64)
	tr := New(Options{Sink: ring, SampleEvery: 10, Label: "shard0"})
	led := &fakeLedger{}
	tr.Bind(led, nil)
	tr.Advance(1)
	led.totals.Probes = 42
	tr.Arrival(&stream.Tuple{TS: 1, ID: 7})
	tr.Advance(25) // crosses boundaries 10 and 20 → snapshot published
	tr.Finish()

	reg := NewRegistry()
	reg.Register(tr, nil) // nils are skipped
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	samples, err := ParseProm(body)
	if err != nil {
		t.Fatalf("scrape fails promtext grammar: %v\n%s", err, body)
	}
	found := false
	for _, s := range samples {
		if s.Name == "jit_probes_total" && s.Labels["shard"] == "shard0" && s.Value == 42 {
			found = true
		}
	}
	if !found {
		t.Error("jit_probes_total{shard=\"shard0\"} 42 not scraped")
	}

	_, body = get("/trace")
	sc := bufio.NewScanner(strings.NewReader(body))
	lines := 0
	for sc.Scan() {
		var e struct {
			Kind  string `json:"kind"`
			TS    int64  `json:"ts"`
			Shard int    `json:"shard"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Kind != "arrival" {
			t.Errorf("unexpected kind %q", e.Kind)
		}
		lines++
	}
	if lines != 1 {
		t.Errorf("%d trace lines, want 1", lines)
	}

	if _, body = get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("healthz said %q", body)
	}
	get("/debug/pprof/cmdline")
}

// TestServerShutdownGraceful proves Shutdown(ctx) lets an in-flight request
// finish before the server goes away, and that the listener is closed for new
// connections afterwards.
func TestServerShutdownGraceful(t *testing.T) {
	ring := NewRingSink(8)
	tr := New(Options{Sink: ring, SampleEvery: 10})
	tr.Bind(&fakeLedger{}, nil)
	tr.Advance(1)
	tr.Advance(25)
	tr.Finish()

	reg := NewRegistry()
	reg.Register(tr)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	// Open a request, read its full body concurrently with Shutdown: graceful
	// shutdown must let it complete with 200 and an intact payload.
	started := make(chan struct{})
	type result struct {
		status int
		body   string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			close(started)
			done <- result{err: err}
			return
		}
		close(started) // connection established; Shutdown must wait for us
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{status: resp.StatusCode, body: string(body), err: err}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request got status %d", r.status)
	}
	if _, err := ParseProm(r.body); err != nil {
		t.Fatalf("in-flight scrape body is torn: %v", err)
	}

	// After Shutdown returns, the port must refuse new connections.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
	// A second shutdown is a no-op, not a panic.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("repeated shutdown: %v", err)
	}
}
