// Package obs is a countersmerge fixture: Histogram.Merge forgets a field.
package obs

// Histogram's Merge forgets Count.
type Histogram struct {
	Count   uint64
	Buckets [4]uint64
}

func (h *Histogram) Merge(o *Histogram) { // want "Histogram.Merge does not reference Histogram field Count"
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}
