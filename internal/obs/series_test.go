package obs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stream"
)

// fakeLedger is a hand-set Ledger: plan totals and the operators' ledgers.
type fakeLedger struct {
	totals metrics.Counters
	ops    []metrics.OpCounters
}

func (l *fakeLedger) Totals() metrics.Counters { return l.totals }

func (l *fakeLedger) Ops() []metrics.OpCounters {
	return append([]metrics.OpCounters(nil), l.ops...)
}

func TestSamplerGrid(t *testing.T) {
	led := &fakeLedger{}
	var acct metrics.Account
	tr := New(Options{SampleEvery: 10})
	tr.Bind(led, &acct)

	// First advance anchors the grid on the absolute boundary after ts.
	if tr.Advance(3); len(tr.Samples()) != 0 {
		t.Fatal("anchor tick must not sample")
	}
	led.totals.Probes = 5
	acct.Alloc(metrics.MemState, 100)
	if tr.Advance(10); len(tr.Samples()) != 1 {
		t.Fatal("boundary 10 not taken")
	}
	led.totals.Probes = 7
	// Jumping past several boundaries emits one sample per boundary — the
	// first carries the delta, the skipped ones are empty — keeping the grid
	// uniform for shard merging.
	if tr.Advance(35); len(tr.Samples()) != 3 {
		t.Fatal("boundaries 20,30 not taken")
	}
	tr.Finish() // final partial interval stamped at the NEXT boundary (40)

	got := tr.Samples()
	if len(got) != 4 {
		t.Fatalf("%d samples, want 4 (T=10,20,30,40)", len(got))
	}
	wantT := []int64{10, 20, 30, 40}
	wantProbes := []uint64{5, 2, 0, 0}
	for i, sm := range got {
		if int64(sm.T) != wantT[i] {
			t.Errorf("sample %d at T=%d, want %d", i, sm.T, wantT[i])
		}
		if sm.Counters.Probes != wantProbes[i] {
			t.Errorf("sample %d probes delta=%d, want %d", i, sm.Counters.Probes, wantProbes[i])
		}
		if sm.LiveBytes != 100 {
			t.Errorf("sample %d live=%d, want 100", i, sm.LiveBytes)
		}
	}
}

// TestSamplerKeepsLatest pins the series' bound: a tracer sampled past
// maxSamples boundaries keeps the latest maxSamples, newest last, while
// jit_samples still counts every sample taken.
func TestSamplerKeepsLatest(t *testing.T) {
	led := &fakeLedger{}
	tr := New(Options{SampleEvery: 10})
	tr.Bind(led, nil)
	tr.Advance(1) // anchor
	const taken = maxSamples + 300
	for k := 1; k <= taken; k++ {
		led.totals.Probes += uint64(k)
		tr.Advance(stream.Time(10 * k))
	}
	got := tr.Samples()
	if len(got) != maxSamples {
		t.Fatalf("kept %d samples, want the latest %d", len(got), maxSamples)
	}
	for i, sm := range got {
		k := taken - maxSamples + 1 + i
		if sm.T != stream.Time(10*k) || sm.Counters.Probes != uint64(k) {
			t.Fatalf("sample %d: T=%d probes=%d, want T=%d probes=%d", i, sm.T, sm.Counters.Probes, 10*k, k)
		}
	}
	var b strings.Builder
	WriteProm(&b, []*Snapshot{tr.Snapshot()})
	if !strings.Contains(b.String(), fmt.Sprintf("\njit_samples{shard=\"shard0\"} %d\n", taken)) {
		t.Errorf("jit_samples does not count all %d samples taken:\n%s", taken, b.String())
	}
}

// TestSamplerRebind checks the migration-handoff semantics: the plan is
// rebound to the tracer after its tree was reshaped, and the sampler keeps
// its totals baseline, because the run's totals carry on.
func TestSamplerRebind(t *testing.T) {
	led := &fakeLedger{}
	tr := New(Options{SampleEvery: 10})
	tr.Bind(led, nil)
	tr.Advance(1) // anchor
	led.totals.Probes = 4

	// Migration: the totals hold the 4, plus 3 from the reshaped tree.
	led.totals.Probes = 7
	tr.Bind(led, nil)

	if tr.Advance(10); len(tr.Samples()) != 1 {
		t.Fatal("boundary not taken")
	}
	sm := tr.Samples()[0]
	if sm.Counters.Probes != 7 {
		t.Errorf("rebind delta=%d, want 7 (baseline kept across migration)", sm.Counters.Probes)
	}
}

func TestNewSamplerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dt<=0 must panic")
		}
	}()
	newSampler(nil, 0)
}

// TestTracerDeliveryLag pins the latency math on the nonzero path: a
// delivery whose result timestamp trails the event-time clock records the
// gap; a future-stamped result (cannot happen from the engine, but the
// clamp is load-bearing) records zero rather than wrapping.
func TestTracerDeliveryLag(t *testing.T) {
	tr := New(Options{})
	tr.Advance(100)
	tr.Delivery(40)  // recovered 60 ms after its event-time due date
	tr.Delivery(100) // live
	tr.Delivery(200) // future-stamped: clamped to zero, not wrapped
	h := tr.Latency()
	if h.Count != 3 || h.Max != 60 || h.Sum != 60 {
		t.Fatalf("latency histogram wrong: %+v", h)
	}
	if h.Buckets[0] != 2 {
		t.Errorf("%d live deliveries in bucket 0, want 2", h.Buckets[0])
	}
	if tr.WallLatency().Count != 0 {
		t.Error("wall twin must stay off unless requested")
	}

	wtr := New(Options{WallLatency: true})
	wtr.Advance(1)
	wtr.Delivery(1)
	if wtr.WallLatency().Count != 1 {
		t.Error("wall twin did not record")
	}
}

func TestSpark(t *testing.T) {
	if Spark(nil) != "" {
		t.Error("empty spark")
	}
	if got := Spark([]uint64{0, 0, 0}); got != "▁▁▁" {
		t.Errorf("all-zero spark = %q", got)
	}
	got := Spark([]uint64{0, 1, 4, 8})
	rs := []rune(got)
	if len(rs) != 4 || rs[0] != '▁' || rs[3] != '█' {
		t.Errorf("spark = %q", got)
	}
	// Ceiling scale: any nonzero value is visibly above the floor rune.
	if rs[1] == '▁' {
		t.Errorf("nonzero value rendered at floor: %q", got)
	}
}
