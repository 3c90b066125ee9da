package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// TestParamsValidate pins the CLI-facing validation: each rejected
// configuration names the offending parameter, and the valid baseline
// passes.
func TestParamsValidate(t *testing.T) {
	ok := Params{N: 4, Rate: 1, Window: stream.Minute, DMax: 10, Horizon: stream.Minute}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Params)
		want string
	}{
		{"one source", func(p *Params) { p.N = 1 }, "sources"},
		{"more sources than a source set holds", func(p *Params) { p.N = stream.MaxSources + 1 }, "at most 64 sources"},
		{"zero rate", func(p *Params) { p.Rate = 0 }, "rate"},
		{"negative rate", func(p *Params) { p.Rate = -1 }, "rate"},
		{"zero window", func(p *Params) { p.Window = 0 }, "window"},
		{"zero domain", func(p *Params) { p.DMax = 0 }, "domain"},
		{"zero horizon", func(p *Params) { p.Horizon = 0 }, "horizon"},
		{"negative shards", func(p *Params) { p.Shards = -1 }, "shard"},
		{"drain horizon without drain", func(p *Params) { p.DrainHorizon = stream.Minute }, "drain"},
		{"adapt epoch without adapt", func(p *Params) { p.AdaptEpoch = stream.Minute }, "adapt"},
		{"ops endpoint on a host name", func(p *Params) { p.ObsAddr = "example.com:9090" }, "-obs-addr"},
		{"ops endpoint port out of range", func(p *Params) { p.ObsAddr = "127.0.0.1:99999" }, "port"},
		{"window past the engine's time range", func(p *Params) { p.Window = core.NoDeadline - stream.MaxTime }, "time range"},
		{"window plus disorder past the engine's time range", func(p *Params) { p.Window, p.Disorder = core.NoDeadline/2, core.NoDeadline/2 }, "time range"},
	}
	for _, tc := range cases {
		p := ok
		tc.mut(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The drain horizon is legal whenever some path forces the drain on.
	for _, mut := range []func(*Params){
		func(p *Params) { p.Drain = true },
		func(p *Params) { p.Shards = 2 },
		func(p *Params) { p.Adapt = true },
	} {
		p := ok
		p.DrainHorizon = stream.Minute
		mut(&p)
		if err := p.Validate(); err != nil {
			t.Errorf("drain horizon wrongly rejected: %v", err)
		}
	}
}
