package checkpoint

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/source"
	"repro/internal/stream"
)

// TestSnapshotRoundTripProperty is satellite 3: for every plan topology ×
// mode of the scenario matrix, under every in-order hostile-stream mutator
// stack, at several cut points — serialize the §7 snapshot cut, decode it
// into a fresh replica, replay, and snapshot again. The second snapshot (and
// therefore its encoding) must be byte-identical to the first: the durable
// format plus ReplayInWindow is a lossless fixed point of SnapshotInWindow.
//
// Disordered scenarios are excluded deliberately: the durable path refuses
// them (serve.Config.Validate) because the engine's reorder buffer sits
// outside the snapshot cut, and feeding a raw disordered trace directly into
// a plan is not the arrival discipline the snapshot contract is defined over.
func TestSnapshotRoundTripProperty(t *testing.T) {
	// The matrix cells contribute topology × mode; shards and adaptivity are
	// engine-level concerns with no plan-state of their own, so dedupe.
	type topo struct {
		bushy bool
		mode  string
	}
	seen := map[topo]bool{}
	for _, cell := range scenario.Matrix(true) {
		key := topo{cell.Bushy, cell.Mode.Name}
		if seen[key] {
			continue
		}
		seen[key] = true
		for _, sc := range scenario.Suite(true) {
			if sc.Disorder > 0 {
				continue
			}
			name := fmt.Sprintf("%s/%s", cell.String(), sc.Name)
			t.Run(name, func(t *testing.T) {
				p := cell.Apply(sc.Apply(scenario.Base(true)))
				p.Shards, p.Adapt = 1, false
				b := p.Plan()
				tuples := source.Generate(b.Catalog, p.SourceConfig())
				if len(tuples) < 10 {
					t.Fatalf("degenerate workload: %d tuples", len(tuples))
				}
				for _, frac := range []int{3, 2} { // cuts at 1/3 and 1/2
					k := len(tuples) / frac
					cut := tuples[k-1].TS
					// Feed the prefix with the engine's arrival discipline.
					live := b.Replicate()
					live.ReplayInWindow(tuples[:k])
					ck := &Checkpoint{
						Cut:       cut,
						IngestHWM: tuples[k-1].ID,
						Delivered: 7,
						Config:    "roundtrip-property",
						Rows:      live.SnapshotInWindow(cut),
					}
					data := Encode(ck)
					got, err := Decode(data)
					if err != nil {
						t.Fatalf("cut %d/%d: decode: %v", k, len(tuples), err)
					}
					restored := b.Replicate()
					restored.ReplayInWindow(got.Rows)
					again := restored.SnapshotInWindow(cut)
					if !reflect.DeepEqual(again, ck.Rows) {
						t.Fatalf("cut %d/%d: restored snapshot diverges (%d rows vs %d)",
							k, len(tuples), len(again), len(ck.Rows))
					}
					ck2 := &Checkpoint{
						Cut: ck.Cut, IngestHWM: ck.IngestHWM, Delivered: ck.Delivered,
						Config: ck.Config, Rows: again,
					}
					if !bytes.Equal(Encode(ck2), data) {
						t.Fatalf("cut %d/%d: re-encoding is not byte-identical", k, len(tuples))
					}
				}
			})
		}
	}
}

// TestSnapshotReplayWindowEquivalence pins the window-shift form of the same
// contract: a replica restored from a cut snapshot and a plan that has run
// the whole prefix from scratch hold identical in-window state at every
// later cut — the restored server's future is the crashed server's future.
func TestSnapshotReplayWindowEquivalence(t *testing.T) {
	p := scenario.Base(true)
	b := p.Plan()
	tuples := source.Generate(b.Catalog, p.SourceConfig())
	k := len(tuples) / 2
	cut := tuples[k-1].TS

	full := b.Replicate()
	full.ReplayInWindow(tuples[:k])

	restored := b.Replicate()
	restored.ReplayInWindow(full.SnapshotInWindow(cut))

	// Both now consume the identical suffix; their snapshots must stay in
	// lockstep at every subsequent window boundary.
	step := p.Window / 2
	next := cut + step
	for i := k; i < len(tuples); i++ {
		tp := tuples[i]
		full.ReplayInWindow([]*stream.Tuple{tp})
		restored.ReplayInWindow([]*stream.Tuple{tp})
		if tp.TS >= next {
			next = tp.TS + step
			a, bb := full.SnapshotInWindow(tp.TS), restored.SnapshotInWindow(tp.TS)
			if !reflect.DeepEqual(a, bb) {
				t.Fatalf("state diverged at ts=%d: %d rows vs %d", tp.TS, len(a), len(bb))
			}
		}
	}
}
