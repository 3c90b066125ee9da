package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// TestExpiredRecoveryInputRests feeds the twelve arrivals a benchmark stream
// was delta-debugged to (bench/README.md finding 2; DESIGN.md §4 walks the
// trace): a 4-source clique, bushy, w = 60 s, drained. At t = 239 296 Op2
// releases CD(2233,1672) past its own window; entering Op3 it matches two
// buffered MNSs and resumes Op1, which returns AB(2157,1932) — and that
// composite can only find CD if CD came to rest somewhere Op3's probes look.
// Every probed input ends in exactly one of state, blacklist and graveyard;
// an expired recovery input that rested nowhere lost the final in every mode
// with feedback.
func TestExpiredRecoveryInputRests(t *testing.T) {
	cat, conj := predicate.Clique(4)
	var arrivals []*stream.Tuple
	for _, a := range []struct {
		id   uint64
		src  stream.SourceID
		ts   stream.Time
		vals [3]stream.Value
	}{
		{1638, 3, 170702, [3]stream.Value{9, 16, 9}}, {1670, 1, 173835, [3]stream.Value{11, 11, 4}},
		{1671, 1, 173868, [3]stream.Value{10, 13, 1}}, {1672, 3, 174053, [3]stream.Value{6, 15, 8}},
		{1872, 0, 196240, [3]stream.Value{3, 9, 5}}, {1898, 0, 198739, [3]stream.Value{11, 16, 14}},
		{1918, 2, 200491, [3]stream.Value{9, 16, 9}}, {1932, 1, 202451, [3]stream.Value{15, 16, 15}},
		{1960, 0, 205049, [3]stream.Value{10, 9, 6}}, {2157, 0, 224963, [3]stream.Value{15, 9, 6}},
		{2233, 2, 233133, [3]stream.Value{9, 16, 8}}, {2283, 1, 239296, [3]stream.Value{3, 16, 8}},
	} {
		arrivals = append(arrivals, &stream.Tuple{ID: a.id, Source: a.src, TS: a.ts, Vals: a.vals[:]})
	}
	want := []string{"0:2157|1:1932|2:2233|3:1672"}
	for _, name := range []string{"ref", "jit", "bloom"} {
		mode, _ := core.ParseMode(name)
		b := plan.BuildTree(cat, conj, plan.Bushy(4), plan.Options{
			Window: stream.Minute, Mode: mode, KeepResults: true, NoStateIndex: true,
		})
		engine.NewWithOptions(b, engine.Options{Drain: true}).Run(arrivals)
		if got := b.Sink.ResultKeys(); !slices.Equal(got, want) {
			t.Errorf("%s delivered %v, want %v", name, got, want)
		}
	}
}
