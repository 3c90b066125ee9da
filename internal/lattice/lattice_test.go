package lattice

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyObservations(t *testing.T) {
	l := New(3)
	// No opposite tuples observed at all: every Level-1 node alive → the
	// three atoms are the MNSs (higher nodes non-minimal).
	got := l.MNSes()
	if len(got) != 3 {
		t.Fatalf("want 3 level-1 MNSs, got %v", got)
	}
}

func TestFullMatchKillsAll(t *testing.T) {
	l := New(3)
	l.ObserveAllDead()
	if got := l.MNSes(); len(got) != 0 {
		t.Fatalf("full match must leave no MNS, got %v", got)
	}
}

// TestPaperExample reproduces the e1/e2 example of Sec. IV-A: e1 matches
// atom a only, e2 matches atom c only. Nodes a and c die; node ac stays
// alive (no single tuple matches both) and is reported as an MNS along with
// the untouched atoms b and d.
func TestPaperExample(t *testing.T) {
	// atoms: a=bit0, b=bit1, c=bit2, d=bit3
	l := New(4)
	l.Observe(0b0001) // e1 matches a
	l.Observe(0b0100) // e2 matches c
	got := l.MNSes()
	want := map[uint32]bool{0b0010: true, 0b1000: true, 0b0101: true} // b, d, ac
	if len(got) != len(want) {
		t.Fatalf("got %b want %v", got, want)
	}
	for _, m := range got {
		if !want[m] {
			t.Fatalf("unexpected MNS %b", m)
		}
	}
}

func TestMinimality(t *testing.T) {
	// If atom a never matches, a is an MNS and no superset may be reported.
	l := New(3)
	l.Observe(0b110) // b and c match together; a never does
	got := l.MNSes()
	if len(got) != 1 || got[0] != 0b001 {
		t.Fatalf("want only {a}, got %b", got)
	}
}

// TestAgainstBruteForce cross-checks Identify_MNS with the independent
// reference implementation over random observation sets.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 2000; iter++ {
		m := 1 + rng.Intn(5)
		nObs := rng.Intn(8)
		l := New(m)
		var obs []uint32
		full := uint32(1)<<uint(m) - 1
		for i := 0; i < nObs; i++ {
			mask := uint32(rng.Intn(int(full) + 1))
			obs = append(obs, mask)
			l.Observe(mask)
		}
		got := l.MNSes()
		want := BruteMNS(m, obs)
		if len(got) != len(want) {
			t.Fatalf("m=%d obs=%b: got %b want %b", m, obs, got, want)
		}
		wantSet := map[uint32]bool{}
		for _, w := range want {
			wantSet[w] = true
		}
		for _, g := range got {
			if !wantSet[g] {
				t.Fatalf("m=%d obs=%b: unexpected MNS %b (want %b)", m, obs, g, want)
			}
		}
	}
}

// TestMNSInvariants checks the defining properties on random inputs via
// testing/quick: every reported MNS is alive (contained in no observation)
// and minimal (every strict subset is dead).
func TestMNSInvariants(t *testing.T) {
	f := func(seed int64, nObs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		full := uint32(1)<<uint(m) - 1
		l := New(m)
		var obs []uint32
		for i := 0; i < int(nObs%6); i++ {
			mask := uint32(rng.Intn(int(full) + 1))
			obs = append(obs, mask)
			l.Observe(mask)
		}
		contained := func(mask uint32) bool {
			for _, o := range obs {
				if mask&^o == 0 {
					return true
				}
			}
			return false
		}
		for _, mns := range l.MNSes() {
			if contained(mns) {
				return false // not alive
			}
			for b := mns; b != 0; b &= b - 1 {
				sub := mns &^ (b & -b)
				if sub != 0 && !contained(sub) {
					return false // a strict subset is alive → not minimal
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOpsAccounting(t *testing.T) {
	l := New(3)
	before := l.Ops()
	l.Observe(0b101)
	if l.Ops() <= before {
		t.Fatal("observe must charge node evaluations")
	}
}

func TestBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for m=0")
		}
	}()
	New(0)
}

// TestResetReuse checks that one lattice serves many inputs: after Reset it
// answers exactly as a fresh lattice would, whatever the previous input left
// behind in the dead set and in MNSes' scratch.
func TestResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for m := 1; m <= 6; m++ {
		reused := New(m)
		for round := 0; round < 50; round++ {
			reused.Reset()
			fresh := New(m)
			var observed []uint32
			for i := rng.Intn(5); i > 0; i-- {
				mask := uint32(rng.Intn(1 << uint(m)))
				observed = append(observed, mask)
				reused.Observe(mask)
				fresh.Observe(mask)
			}
			got, want := reused.MNSes(), fresh.MNSes()
			if len(got) != len(want) {
				t.Fatalf("m=%d round %d after %b: reused %b, fresh %b", m, round, observed, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("m=%d round %d after %b: reused %b, fresh %b", m, round, observed, got, want)
				}
			}
		}
	}
}
