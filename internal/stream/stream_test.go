package stream

import (
	"testing"
	"testing/quick"
)

func TestSourceSet(t *testing.T) {
	var s SourceSet
	if !s.Empty() || s.Count() != 0 {
		t.Fatalf("zero set not empty")
	}
	s = s.Add(0).Add(3).Add(3)
	if s.Count() != 2 || !s.Has(0) || !s.Has(3) || s.Has(1) {
		t.Fatalf("bad membership: %v", s)
	}
	o := SourceSet(0).Add(1).Add(3)
	if !s.Intersects(o) || s.Contains(o) {
		t.Fatalf("bad set relations")
	}
	u := s.Union(o)
	if u.Count() != 3 || !u.Contains(s) || !u.Contains(o) {
		t.Fatalf("bad union %v", u)
	}
	ids := u.IDs()
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 3 {
		t.Fatalf("bad IDs %v", ids)
	}
}

func TestSourceSetProperties(t *testing.T) {
	f := func(a, b uint16) bool {
		sa, sb := SourceSet(a), SourceSet(b)
		u := sa.Union(sb)
		// Union contains both; intersection symmetric; count additive.
		if !u.Contains(sa) || !u.Contains(sb) {
			return false
		}
		if sa.Intersects(sb) != sb.Intersects(sa) {
			return false
		}
		return u.Count() <= sa.Count()+sb.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	a := NewSchema("A", "x", "y")
	idA := cat.MustAdd(a)
	if idA != 0 || a.ID() != 0 {
		t.Fatalf("bad id %d", idA)
	}
	if _, err := cat.Add(NewSchema("A")); err == nil {
		t.Fatal("duplicate source accepted")
	}
	cat.MustAdd(NewSchema("B", "x"))
	if cat.NumSources() != 2 {
		t.Fatalf("want 2 sources")
	}
	if s, ok := cat.ByName("B"); !ok || s.Name != "B" {
		t.Fatal("ByName failed")
	}
}

func mk(t *testing.T, src SourceID, ts Time, vals ...Value) *Tuple {
	t.Helper()
	return &Tuple{ID: uint64(ts) + uint64(src)*1000, Source: src, TS: ts, Vals: vals}
}

func TestCompositeJoin(t *testing.T) {
	a := NewComposite(3, mk(t, 0, 10, 1, 2))
	b := NewComposite(3, mk(t, 1, 5, 1))
	ab := Join(a, b)
	if ab.TS != 10 || ab.MinTS != 5 {
		t.Fatalf("timestamps: ts=%v min=%v", ab.TS, ab.MinTS)
	}
	if !ab.Sources.Has(0) || !ab.Sources.Has(1) || ab.Sources.Has(2) {
		t.Fatalf("sources wrong: %v", ab.Sources)
	}
	if ab.Comp(0) != a.Comp(0) || ab.Comp(1) != b.Comp(1) || ab.Comp(2) != nil {
		t.Fatal("components wrong")
	}
}

func TestCompositeJoinOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on overlapping join")
		}
	}()
	a := NewComposite(2, mk(t, 0, 1, 1))
	b := NewComposite(2, mk(t, 0, 2, 2))
	Join(a, b)
}

func TestCompositeKeys(t *testing.T) {
	a := NewComposite(2, mk(t, 0, 3, 1))
	b := NewComposite(2, mk(t, 1, 1, 1))
	if ab := Join(a, b); ab.Key() == a.Key() || ab.Key() == b.Key() {
		t.Fatal("keys collide")
	}
}

// TestSizeAccountingStable: a stored composite's charge is its own header
// plus its components' payload, and joining it into a result leaves that
// charge as it was, so a state frees exactly what it charged.
func TestSizeAccountingStable(t *testing.T) {
	c := NewComposite(4, mk(t, 0, 1, 1, 2, 3))
	before := c.DeepSizeBytes()
	if before != c.SizeBytes()+c.Comp(0).SizeBytes() {
		t.Fatalf("deep size %d is not the header %d plus the component %d", before, c.SizeBytes(), c.Comp(0).SizeBytes())
	}
	Join(c, NewComposite(4, mk(t, 1, 2, 2)))
	if c.DeepSizeBytes() != before {
		t.Fatal("size changed by a join; accounting would corrupt")
	}
}

func TestTimeString(t *testing.T) {
	if (2*Minute).String() != "2m" || (1500*Millisecond).String() != "1500ms" || (3*Second).String() != "3s" {
		t.Fatalf("time rendering: %v %v", (2 * Minute).String(), (3 * Second).String())
	}
}

// TestEpochClock pins the clock shared by adapt, shard and serve: the first
// timestamp arms it and is never due, the boundary is inclusive, and one
// Advance skips every period a quiet stretch jumped over.
func TestEpochClock(t *testing.T) {
	k := EpochClock{Period: 10}
	for i, step := range []struct {
		ts  Time
		due bool
	}{
		{3, false},  // arms: boundary 13
		{12, false}, // below the boundary
		{13, true},  // boundary inclusive; advances to 23
		{14, false},
		{22, false},
		{57, true}, // multi-period jump: one tick, boundary 63
		{62, false},
		{63, true},
	} {
		got := k.Due(step.ts)
		if got != step.due {
			t.Fatalf("step %d: Due(%d) = %v, want %v", i, step.ts, got, step.due)
		}
		if got {
			k.Advance(step.ts)
		}
	}
}
