package lattice

import (
	"math/rand"
	"slices"
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
	l.Observe(0b111)
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

// TestOpsAccounting pins the cost of a hand-worked m=3 input visit by visit:
// one unit per dead[] node read or written, nothing for an empty mask or for
// Reset, and in MNSes nothing for a node with an alive child.
func TestOpsAccounting(t *testing.T) {
	l := New(3)
	step := func(what string, want uint64, do func()) {
		t.Helper()
		before := l.Ops()
		do()
		if got := l.Ops() - before; got != want {
			t.Fatalf("%s: charged %d visits, want %d", what, got, want)
		}
	}
	mnses := func(want ...uint32) func() {
		return func() {
			t.Helper()
			if got := l.MNSes(); !slices.Equal(got, want) {
				t.Fatalf("MNSes %b, want %b", got, want)
			}
		}
	}
	step("Observe(000)", 0, func() { l.Observe(0) })
	// Reads 101 (alive), writes it, then writes its proper submasks 100, 001.
	step("Observe(101)", 3, func() { l.Observe(0b101) })
	step("Observe(101) again", 1, func() { l.Observe(0b101) }) // 101 is dead: one read
	step("Observe(001)", 1, func() { l.Observe(0b001) })       // died under 101
	step("Observe(010)", 1, func() { l.Observe(0b010) })       // no proper submask
	// Level 1 is read whole and is dead, so all of Level 2 is read: 011 and
	// 110 are alive (their atoms died under different partners), 101 is dead.
	// 111 has an alive child and is not read.
	step("MNSes", 6, mnses(0b011, 0b110))
	step("Observe(111)", 7, func() { l.Observe(0b111) }) // every node written
	step("MNSes after a full match", 7, mnses())         // every node read, all dead
	step("Reset", 0, func() { l.Reset() })
	// Level 1 is alive throughout, so nothing above it can be minimal: the
	// walk ends there.
	step("MNSes after Reset", 3, mnses(0b001, 0b010, 0b100))
	step("Observe(110)", 3, func() { l.Observe(0b110) })
	// 001 is alive, which settles 011, 101 and (through them) 111 unread; 110
	// has two dead children and is read.
	step("MNSes", 4, mnses(0b001))
}

// replay feeds l one input's observations after a Reset and checks what the
// demand-driven lattice promises: Observe never costs more than the
// visit-every-node loop it replaced (2^m−1 per observation), MNSes reads
// Level 1 and, above it, exactly the nodes whose children are all dead, and
// the MNS set is BruteMNS's, in BruteMNS's order.
func replay(t *testing.T, l *Lattice, m int, observations []uint32) {
	t.Helper()
	full := uint32(1)<<uint(m) - 1
	var seen []uint32
	dead := func(mask uint32) bool {
		for _, o := range seen {
			if mask&^o == 0 {
				return true
			}
		}
		return false
	}
	l.Reset()
	var spent uint64
	for _, o := range observations {
		before := l.Ops()
		l.Observe(o)
		spent += l.Ops() - before
		seen = append(seen, o&full)
		if limit := uint64(full) * uint64(len(seen)); spent > limit {
			t.Fatalf("m=%d after %b: Observe charged %d visits, the full walk charged %d", m, seen, spent, limit)
		}
	}
	reads := uint64(m)
	for mask := uint32(1); mask <= full; mask++ {
		if popcount(mask) < 2 {
			continue
		}
		childless := true
		for b := mask; b != 0 && childless; b &= b - 1 {
			childless = dead(mask &^ (b & -b))
		}
		if childless {
			reads++
		}
	}
	before := l.Ops()
	got, want := l.MNSes(), BruteMNS(m, seen)
	if l.Ops()-before != reads {
		t.Fatalf("m=%d after %b: MNSes charged %d visits, %d nodes have no alive child", m, seen, l.Ops()-before, reads)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("m=%d after %b: MNSes %b, brute force %b", m, seen, got, want)
	}
}

// TestDemandDrivenProperties replays random inputs on lattices of every
// size, several per lattice so that Reset is exercised between them.
// Observations are biased towards few atoms, as a selective join's are.
func TestDemandDrivenProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for m := 1; m <= MaxAtoms; m++ {
		l := New(m)
		for round := 0; round < 40; round++ {
			var observations []uint32
			for i := rng.Intn(10); i > 0; i-- {
				o := uint32(rng.Intn(1 << uint(m)))
				if rng.Intn(2) == 0 {
					o &= uint32(rng.Intn(1 << uint(m)))
				}
				observations = append(observations, o)
			}
			replay(t, l, m, observations)
		}
	}
}

// FuzzLatticeObserve lets the fuzzer choose the lattice size and the inputs:
// two bytes per observation, and an observation with its top bit set starts
// the next input on the same lattice.
func FuzzLatticeObserve(f *testing.F) {
	f.Add(uint8(3), []byte{0b101, 0, 0b101, 0, 0b010, 0, 0, 0x80, 0b111, 0})
	f.Add(uint8(12), []byte{0xff, 0x07, 0x00, 0x08, 0xff, 0x0f})
	f.Add(uint8(1), []byte{1, 0})
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		m := 1 + int(size)%MaxAtoms
		if len(data) > 64 {
			data = data[:64] // replay's reference tests every node against every observation
		}
		l := New(m)
		var observations []uint32
		for ; len(data) >= 2; data = data[2:] {
			o := uint32(data[0]) | uint32(data[1])<<8
			if o&0x8000 != 0 {
				replay(t, l, m, observations)
				observations = observations[:0]
				continue
			}
			observations = append(observations, o)
		}
		replay(t, l, m, observations)
	})
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
