package obs

import (
	"fmt"
	"math"
	"math/bits"
)

// NumBuckets is the fixed log2 bucket count of a Histogram. Bucket i holds
// observations whose bit length is i: bucket 0 holds exactly 0, bucket i>0
// holds [2^(i-1), 2^i−1]. 64 buckets cover the full uint64 range, so a
// histogram never saturates or rescales — merges are plain field-wise sums.
const NumBuckets = 64

// Histogram is a fixed log-bucket histogram of non-negative integer
// observations (event-time latencies in ms, or wall latencies in ns). The
// zero value is ready to use; it is a plain value type, so copying one is a
// snapshot and merging is associative — per-shard histograms sum into the
// fleet view.
type Histogram struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= NumBuckets {
		i = NumBuckets - 1 // values ≥ 2^63 share the top bucket
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Merge adds other into h field-wise. TestHistogramMergeSemantics fails if
// a Histogram field is added without being merged here.
func (h *Histogram) Merge(other Histogram) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
}

// BucketUpper returns the inclusive upper bound of bucket i — the value
// reported for quantiles landing in that bucket and the `le` edge of the
// Prometheus exposition.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// (0 < q ≤ 1), or 0 for an empty histogram. Log-bucket resolution: the
// answer is exact to within a factor of 2.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range h.Buckets {
		cum += b
		if cum >= target {
			u := BucketUpper(i)
			if u > h.Max {
				u = h.Max
			}
			return u
		}
	}
	return h.Max
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// String summarizes the histogram for CLI output.
func (h Histogram) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50≤%d p90≤%d p99≤%d max=%d",
		h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max)
}
