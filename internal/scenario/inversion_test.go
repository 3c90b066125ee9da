package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
)

// baseUnits is the CostUnits share every mode pays: probe comparisons,
// result construction, state maintenance and queue traffic.
func baseUnits(c metrics.Counters) int64 {
	return int64(c.Comparisons + c.Results*8 + c.Inserted*2 + c.Purged*2 + c.QueueOps)
}

// machineryUnits is the CostUnits share only the feedback machinery pays:
// MNS identification (lattice walks, Bloom checks), feedback messages, and
// the suspension lifecycle (suspend, resume, catch-up joins).
func machineryUnits(c metrics.Counters) int64 {
	return int64(c.LatticeNodes + c.BloomChecks + c.Feedbacks*16 +
		c.Suspended*4 + c.Resumed*4 + c.CatchUpJoins + c.AdaptUnits)
}

// TestLeftDeepInversionStudy measures the Figure 16 extremes (N=3, N=6,
// left-deep) drained — exact delivery, where JIT must build every result REF
// builds — by decomposing CostUnits into the base share (work every mode
// pays) and the machinery share (work only JIT pays), across a skew sweep at
// N=3 that scales the suspension-payback side: Zipf skew concentrates
// arrivals on hot signatures, so each detected MNS covers more of the future
// stream.
//
// Measured verdict (pinned below; recorded in the fig16 spec comment): (a)
// At N=3 uniform the machinery share is mostly resumption catch-up joins
// (0.52) and little lattice (0.05); at N=6 no share dominates — lattice 0.35,
// feedback 0.26, catch-up 0.24. Catch-up was 0.55 there while every
// suppressed pair was parked unevaluated and the unmark evaluated it again,
// joining or not. Under skew, where hot values make partial matches common,
// the lattice leads (0.60 at s=1.5, 0.72 at s=2.0). (b) Suspension pays at
// both uniform extremes, and repays the machinery at both: JIT's base share
// is 0.10× REF's at N=3 and 0.63× at N=6, the payback (6.69 M units at N=3,
// 5.34 M at N=6) exceeds the machinery (0.63 M, 1.34 M), and JIT runs at
// 0.19× and 0.72× REF (0.84× at N=6, with 2.22 M of machinery, while
// suppressed pairs were parked unevaluated). Until deferred results skipped
// the partners their MNS ruled out, every S_Π composite and window-close
// recovery at the root scanned its whole opposite state: the payback was
// 2.19 M and 1.47 M, N=6 repaid only 58 % of its 2.51 M of machinery, and
// JIT ran at 0.79× and 1.07× REF. Until late inputs probed only their own
// key in the graveyard, the payback was negative at N=3 (−0.36 M) and JIT
// ran at 1.48× and 1.56× REF. (c) Skew erodes the N=3 payback. Hot values
// collapse detections (31 854 → 7 250 → 2 980 MNSs at s=0, 1.5, 2.0), so
// less is suspended and the payback shrinks (6.69 M → 1.37 M → 0.40 M):
// JIT/REF rises from 0.19 to 0.90 and 0.99.
func TestLeftDeepInversionStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("inversion study runs the full fig16 extremes; skipped in -short")
	}
	spec, ok := exp.SpecByID(16)
	if !ok {
		t.Fatal("fig16 spec missing")
	}
	// The short report preset's scaling for fig16, at the excluded extremes.
	cfg := exp.Config{SizeScale: 0.48, DomainScale: 0.40, Workload: exp.Params{Seed: 1}}
	cells := []struct {
		n    float64
		zipf float64
		rate float64 // leaner stream under skew: match probability is hotter
	}{
		// No skew sweep at N=6: fifteen skewed clique predicates blow up the
		// deep pipeline's intermediate volume past any useful test budget,
		// and the N=6 question (where does the machinery go?) is answered by
		// the uniform cell alone.
		{3, 0, 1}, {3, 1.5, 0.6}, {3, 2.0, 0.5},
		{6, 0, 1},
	}
	type verdict struct {
		n, zipf      float64
		saved, mach  int64
		latticeShare float64
		catchUpShare float64
		jitOverRef   float64
	}
	var out []verdict
	for _, c := range cells {
		run := func(nm exp.NamedMode) (int64, int64, metrics.Counters) {
			p := spec.ParamsAt(cfg, nm, c.n)
			p.Zipf, p.Rate, p.Drain = c.zipf, c.rate, true
			r := p.Run()
			base, mach := baseUnits(r.Counters), machineryUnits(r.Counters)
			// The decomposition must tile CostUnits exactly — a new weighted
			// counter added to CostUnits() without a home here would skew
			// every conclusion below silently.
			if got := base + mach; got != int64(r.CostUnits) {
				t.Fatalf("decomposition does not tile CostUnits: base %d + machinery %d != %d",
					base, mach, r.CostUnits)
			}
			return base, mach, r.Counters
		}
		refBase, refMach, _ := run(exp.NamedMode{Name: "REF", Mode: core.REF()})
		jitBase, jitMach, jc := run(exp.NamedMode{Name: "JIT", Mode: core.JIT()})
		if refMach != 0 {
			t.Fatalf("REF charged %d machinery units; the reference mode has no feedback path", refMach)
		}
		if jitMach == 0 {
			t.Fatalf("N=%.0f zipf=%.1f: JIT charged no machinery units", c.n, c.zipf)
		}
		v := verdict{
			n: c.n, zipf: c.zipf,
			saved: refBase - jitBase, mach: jitMach,
			latticeShare: float64(jc.LatticeNodes) / float64(jitMach),
			catchUpShare: float64(jc.CatchUpJoins) / float64(jitMach),
			jitOverRef:   float64(jitBase+jitMach) / float64(refBase),
		}
		out = append(out, v)
		t.Logf("N=%.0f zipf=%.1f: JIT/REF=%.3f  base JIT/REF=%.2f  payback=%d  machinery=%d (lattice %.2f, catch-up %.2f, feedback %.2f)  suspended=%d mns=%d",
			v.n, v.zipf, v.jitOverRef, float64(jitBase)/float64(refBase), v.saved, v.mach, v.latticeShare, v.catchUpShare,
			float64(jc.Feedbacks*16)/float64(jitMach), jc.Suspended, jc.MNSDetected)
	}
	n3 := map[float64]verdict{}
	for _, v := range out {
		if v.n == 3 {
			n3[v.zipf] = v
		}
		if v.zipf != 0 {
			continue
		}
		// (a) At N=3 uniform the machinery is resumption catch-up, not
		// Identify_MNS lattice walks; at N=6 the lattice leads a machinery
		// that no share dominates.
		if v.n == 3 && (v.latticeShare >= 0.25 || v.catchUpShare < 0.5) {
			t.Errorf("N=3 uniform: lattice share %.2f, catch-up share %.2f — the machinery is no longer catch-up-dominated; update the fig16 spec comment",
				v.latticeShare, v.catchUpShare)
		}
		if v.n == 6 && (v.catchUpShare >= v.latticeShare || v.latticeShare >= 0.5) {
			t.Errorf("N=6 uniform: lattice share %.2f, catch-up share %.2f — the lattice no longer leads a machinery no share dominates; update the fig16 spec comment",
				v.latticeShare, v.catchUpShare)
		}
		// (b) At the uniform extremes suspension saves base work, and the
		// saving repays the machinery at both.
		if v.saved <= 0 {
			t.Errorf("N=%.0f uniform: payback %d — suspension no longer saves base work; update the fig16 spec comment", v.n, v.saved)
		}
		if v.saved <= v.mach || v.jitOverRef >= 1 {
			t.Errorf("N=%.0f uniform: payback %d against machinery %d, JIT/REF %.3f — the verdict (payback above machinery, JIT below REF at both extremes) moved; update the fig16 spec comment",
				v.n, v.saved, v.mach, v.jitOverRef)
		}
	}
	// (c) Skew erodes the N=3 payback and with it JIT's lead.
	if !(n3[0].saved > n3[1.5].saved && n3[1.5].saved > n3[2.0].saved) || n3[2.0].jitOverRef <= n3[0].jitOverRef {
		t.Errorf("N=3: payback %d, %d, %d and JIT/REF %.3f, %.3f, %.3f at zipf=0, 1.5, 2 — skew no longer erodes the payback; update the fig16 spec comment",
			n3[0].saved, n3[1.5].saved, n3[2.0].saved, n3[0].jitOverRef, n3[1.5].jitOverRef, n3[2.0].jitOverRef)
	}
}
