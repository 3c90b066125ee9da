package obs

import (
	"math"
	"reflect"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0) // bucket 0: exactly zero
	h.Observe(1) // bucket 1: [1,1]
	h.Observe(2) // bucket 2: [2,3]
	h.Observe(3)
	h.Observe(4)              // bucket 3: [4,7]
	h.Observe(1 << 62)        // bucket 63 (bit length 63)
	h.Observe(math.MaxUint64) // bit length 64 → clamped into the top bucket
	for i, want := range map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 63: 2} {
		if h.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, h.Buckets[i], want)
		}
	}
	if h.Count != 7 {
		t.Errorf("count=%d, want 7", h.Count)
	}
	if h.Max != math.MaxUint64 {
		t.Errorf("max=%d", h.Max)
	}
}

func TestHistogramQuantileMean(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	// p50 of 1..100 lands in bucket 6 ([32,63]); upper bound 63.
	if got := h.Quantile(0.50); got != 63 {
		t.Errorf("p50=%d, want 63", got)
	}
	// p99 lands in bucket 7 ([64,127]); upper bound clamped by Max=100.
	if got := h.Quantile(0.99); got != 100 {
		t.Errorf("p99=%d, want 100 (bucket upper clamped by max)", got)
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("mean=%g, want 50.5", got)
	}
	if h.String() == "" || (Histogram{}).String() != "n=0" {
		t.Error("String rendering wrong")
	}
}

// TestHistogramMergeSemantics checks that Merge sums counts, sums and
// buckets and takes the max of maxima — and, walking the struct by
// reflection, that every Histogram field moves under Merge, so a field added
// without extending Merge fails here.
func TestHistogramMergeSemantics(t *testing.T) {
	var src, dst Histogram
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		// Distinct per-field values so a swapped assignment can't cancel out.
		switch f := sv.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Array:
			f.Index(i).SetUint(uint64(i + 1))
		default:
			t.Fatalf("field %s is %s; Merge and this test assume uint64 fields and arrays of them",
				sv.Type().Field(i).Name, f.Kind())
		}
	}
	dst.Merge(src)
	if !reflect.DeepEqual(dst, src) {
		t.Errorf("Merge into a zero histogram dropped or miscounted a field: got %+v, want %+v", dst, src)
	}
	var a, b Histogram
	a.Observe(3)
	a.Observe(100)
	b.Observe(7)
	b.Observe(200)
	merged := a
	merged.Merge(b)
	if merged.Count != 4 || merged.Sum != 310 || merged.Max != 200 {
		t.Fatalf("merge totals wrong: %+v", merged)
	}
	for i := range merged.Buckets {
		if merged.Buckets[i] != a.Buckets[i]+b.Buckets[i] {
			t.Fatalf("bucket %d not summed", i)
		}
	}
}

func TestBucketUpper(t *testing.T) {
	cases := map[int]uint64{0: 0, 1: 1, 2: 3, 3: 7, 10: 1023, 64: math.MaxUint64}
	for i, want := range cases {
		if got := BucketUpper(i); got != want {
			t.Errorf("BucketUpper(%d)=%d, want %d", i, got, want)
		}
	}
}
