package feedback

import (
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/stream"
)

// TestOwedRule holds the one Owed walk to its rule over both stores that run
// it, a blacklist and a mark table. Each parks items under two entries: one
// under m, detected at 50, and one under another MNS, detected at 0, whose
// claim is never honoured. An item under an honoured claim counts with its
// lowerBound only below the entry's detection; every other item counts with
// its own result TS; nothing at or past below is reported, and a store whose
// oldest item is at or past below is not walked at all (its claims are never
// asked).
func TestOwedRule(t *testing.T) {
	const detected = 50
	m, other := mnsA(1, 1000), mnsA(2, 1000)
	partner := func(ts stream.Time) state.Entry { return state.Entry{C: comp(3, tpl(1, ts, 1))} }
	parked := func(ts stream.Time, cursor uint64, pending ...state.Entry) Suspended {
		return Suspended{E: state.Entry{C: comp(3, tpl(0, ts, 1))}, Cursor: cursor, Pending: pending}
	}

	bl := NewBlacklist(&metrics.Account{})
	e, _ := bl.Ensure(m)
	e.Detected = detected
	diverted := parked(40, 0)                       // never probed: bound 40 either way
	pend := parked(30, 5, partner(45), partner(60)) // later: only its Pending can be older, 45
	caught := parked(35, 5)                         // later and nothing pending: owes nothing
	late := parked(detected, 0)                     // at the detection: skipped when honoured
	for _, s := range []Suspended{diverted, pend, caught, late} {
		bl.Park(e, s)
	}
	o, _ := bl.Ensure(other)
	bystander := parked(60, 0)
	bl.Park(o, bystander)

	mt := NewMarkTable(&metrics.Account{})
	oe := mt.ActivateOrigin(m, m.Sig.Sources())
	oe.Detected = detected
	early := PendingPair{L: partner(20), R: partner(40)}          // result TS 40
	atDetect := PendingPair{L: partner(detected), R: partner(10)} // result TS 50: skipped when honoured
	for _, p := range []PendingPair{early, atDetect} {
		mt.RecordSuppressed(oe, p.L, p.R)
	}
	oo := mt.ActivateOrigin(other, other.Sig.Sources())
	far := PendingPair{L: partner(70), R: partner(65)}
	mt.RecordSuppressed(oo, far.L, far.R)

	type owed struct {
		a, b *stream.Composite
		lb   stream.Time
	}
	tuple := func(s Suspended, lb stream.Time) owed { return owed{s.E.C, nil, lb} }
	pair := func(p PendingPair, lb stream.Time) owed { return owed{p.L.C, p.R.C, lb} }
	type store interface {
		Owed(c Claims, later bool, below stream.Time, visit OwedFunc)
	}
	for _, tc := range []struct {
		name   string
		s      store
		honour bool
		later  bool
		below  stream.Time
		want   []owed
		noWalk bool
	}{
		{"blacklist/unhonoured", bl, false, true, NoExpiry,
			[]owed{tuple(diverted, 40), tuple(pend, 30), tuple(caught, 35), tuple(late, 50), tuple(bystander, 60)}, false},
		{"blacklist/honoured", bl, true, false, NoExpiry,
			[]owed{tuple(diverted, 40), tuple(pend, 30), tuple(caught, 35), tuple(bystander, 60)}, false},
		{"blacklist/honoured-later", bl, true, true, NoExpiry,
			[]owed{tuple(diverted, 40), tuple(pend, 45), tuple(bystander, 60)}, false},
		{"blacklist/below", bl, false, true, 36,
			[]owed{tuple(pend, 30), tuple(caught, 35)}, false},
		{"blacklist/honoured-below", bl, true, true, 45,
			[]owed{tuple(diverted, 40)}, false},
		{"blacklist/oldest-at-below", bl, true, true, 30, nil, true},
		{"marks/unhonoured", mt, false, false, NoExpiry,
			[]owed{pair(early, 40), pair(atDetect, 50), pair(far, 70)}, false},
		{"marks/honoured", mt, true, true, NoExpiry,
			[]owed{pair(early, 40), pair(far, 70)}, false},
		{"marks/below", mt, false, false, 50,
			[]owed{pair(early, 40)}, false},
		{"marks/oldest-at-below", mt, true, false, 40, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			asked := 0
			claims := func(x *MNS) bool {
				asked++
				return tc.honour && x == m
			}
			var got []owed
			tc.s.Owed(claims, tc.later, tc.below, func(a, b *stream.Composite, lb stream.Time) {
				got = append(got, owed{a, b, lb})
			})
			if !slices.Equal(got, tc.want) {
				t.Errorf("owed %v, want %v", got, tc.want)
			}
			if tc.noWalk != (asked == 0) {
				t.Errorf("claims asked %d times; a walk that can report nothing must ask none", asked)
			}
		})
	}
}
