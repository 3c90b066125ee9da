package metrics

import (
	"reflect"
	"testing"
)

func TestAccountPeak(t *testing.T) {
	var a Account
	a.Alloc(MemState, 100)
	a.Alloc(MemState, 50)
	a.Free(MemState, 120)
	a.Alloc(MemBloom, 10)
	if a.Live() != 40 {
		t.Fatalf("live=%d", a.Live())
	}
	if a.Peak() != 150 {
		t.Fatalf("peak=%d", a.Peak())
	}
	if a.PeakKB() != 150.0/1024 {
		t.Fatal("PeakKB wrong")
	}
	a.Reset()
	if a.Live() != 0 || a.Peak() != 0 || a.PeakBy() != (MemLedger{}) {
		t.Fatal("reset failed")
	}
}

// TestAccountLedger: the split by structure sums to the totals, the split at
// the peak is the one that set it, operators' accounts add up to the plan's
// and keep their own split at its peak, an operator's name finds its
// account again, and FreeAll returns what LiveByOp read.
func TestAccountLedger(t *testing.T) {
	var a Account
	x, y := a.Op("X"), a.Op("Y")
	x.Alloc(MemState, 100)
	y.Alloc(MemGraveyard, 60)
	x.Free(MemState, 40)
	y.Alloc(MemPending, 30)
	y.Free(MemPending, 30)
	if want := (MemLedger{MemState: 100, MemGraveyard: 60}); a.PeakBy() != want {
		t.Fatalf("at peak %v, want %v", a.PeakBy(), want)
	}
	if got, want := a.PeakByOp(), []OpMem{{"X", MemLedger{MemState: 100}}, {"Y", MemLedger{MemGraveyard: 60}}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("operators at peak %v, want %v", got, want)
	}
	live := a.LiveByOp()
	if want := (MemLedger{MemState: 60, MemGraveyard: 60}); a.LiveBy() != want || x.Live()+y.Live() != a.Live() {
		t.Fatalf("live %v (operators %d + %d of %d), want %v", a.LiveBy(), x.Live(), y.Live(), a.Live(), want)
	}
	if a.Op("X") != x {
		t.Fatal("an operator's name made a second account")
	}
	x.Alloc(MemBlacklist, 7)
	a.FreeAll(live)
	if a.Live() != 7 || a.LiveBy() != (MemLedger{MemBlacklist: 7}) || a.Peak() != 160 {
		t.Fatalf("after FreeAll: live %d %v, peak %d", a.Live(), a.LiveBy(), a.Peak())
	}
	if got, want := a.LiveByOp(), []OpMem{{"X", MemLedger{MemBlacklist: 7}}, {"Y", MemLedger{}}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("operators after FreeAll: %v, want %v", got, want)
	}
	if got, want := (MemLedger{MemState: 2048, MemBloom: 512}).String(),
		"state=2.0KB grave=0.0KB black=0.0KB mns=0.0KB pending=0.0KB bloom=0.5KB"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestAccountNegativePanics(t *testing.T) {
	for _, free := range []func(*Account){
		func(a *Account) { a.Free(MemState, 11) },    // more than is live
		func(a *Account) { a.Free(MemGraveyard, 5) }, // more than its row holds
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("over-free must panic")
				}
			}()
			var a Account
			a.Alloc(MemState, 10)
			free(&a)
		}()
	}
}

// TestCountersAddCoversEveryField walks the Counters struct by reflection
// and asserts Add accumulates every field with distinct values, so a
// swapped or mis-scaled assignment can't cancel out, and that Sub inverts
// Add field-wise — shard merges, plan totals, the obs sampler's deltas and
// the adaptive controller's epoch signal all go through the pair. A field
// missing from Add stays undoubled and one missing from Sub leaves 2x−x ≠ x,
// so this test is the exhaustiveness guard as well as the semantic one.
func TestCountersAddCoversEveryField(t *testing.T) {
	var src, dst Counters
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("field %s is %s; Add and this test assume uint64 counters",
				sv.Type().Field(i).Name, f.Kind())
		}
		// Distinct per-field values so a swapped assignment can't cancel out.
		f.SetUint(uint64(i + 1))
	}
	dst.Add(&src)
	dst.Add(&src)
	dv := reflect.ValueOf(&dst).Elem()
	for i := 0; i < dv.NumField(); i++ {
		if got, want := dv.Field(i).Uint(), uint64(2*(i+1)); got != want {
			t.Errorf("Add dropped or miscounted field %s: got %d, want %d",
				dv.Type().Field(i).Name, got, want)
		}
	}
	if d := dst.Sub(src); d != src {
		t.Errorf("Sub does not invert Add: 2x−x = %+v, want %+v", d, src)
	}
}

// TestMergeOps pins the one merge-by-name: known names add, unknown names
// append in order of first appearance, and the source is left alone.
func TestMergeOps(t *testing.T) {
	a := []OpCounters{{"Op1", Counters{Probes: 1}}, {"Op2", Counters{Probes: 2}}}
	b := []OpCounters{{"Op2", Counters{Probes: 10, Purged: 1}}, {"Op9", Counters{Probes: 5}}}
	got := MergeOps(MergeOps(nil, a), b)
	want := []OpCounters{{"Op1", Counters{Probes: 1}}, {"Op2", Counters{Probes: 12, Purged: 1}}, {"Op9", Counters{Probes: 5}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged %+v, want %+v", got, want)
	}
	if a[1].Counters.Probes != 2 {
		t.Errorf("MergeOps(nil, a) aliased its source: a = %+v", a)
	}
}

func TestCountersAddAndCost(t *testing.T) {
	a := Counters{Comparisons: 10, Results: 2, Feedbacks: 1}
	b := Counters{Comparisons: 5, Inserted: 3, Suspended: 2}
	a.Add(&b)
	if a.Comparisons != 15 || a.Inserted != 3 || a.Suspended != 2 {
		t.Fatal("add wrong")
	}
	cost := a.CostUnits()
	// 15*1 + 2*8 + 3*2 + 1*16 + 2*4 = 15+16+6+16+8 = 61
	if cost != 61 {
		t.Fatalf("cost=%d want 61", cost)
	}
	if a.String() == "" {
		t.Fatal("empty render")
	}
}
