// Package bloom implements the Bloom filters of Sec. IV-A: k-bit strings
// with l hash functions maintained over the join-attribute values of an
// operator state, used as a cheap sound-but-incomplete MNS detector (a value
// reported absent is certainly absent; a value reported present may not be).
//
// Window states both insert and expire tuples, while classic Bloom filters
// support no deletion, so the filter tracks a stale-delete count and is
// rebuilt from the live state when staleness passes a threshold.
package bloom

import (
	"math"

	"repro/internal/stream"
)

// Filter is a Bloom filter over stream.Value keys.
type Filter struct {
	bits   []uint64
	k      uint64 // number of bits
	hashes int    // number of hash functions l
	n      int    // inserted keys since last rebuild
	stale  int    // deletions since last rebuild
}

// New creates a filter with k bits and l hash functions. k is rounded up to
// a multiple of 64.
func New(k int, l int) *Filter {
	if k < 64 {
		k = 64
	}
	if l < 1 {
		l = 1
	}
	words := (k + 63) / 64
	return &Filter{bits: make([]uint64, words), k: uint64(words * 64), hashes: l}
}

// NewForCapacity sizes a filter for the expected number of keys n at ~1%
// false-positive rate using the standard formulas k = -n·ln p / (ln 2)² and
// l = k/n · ln 2.
func NewForCapacity(n int) *Filter {
	if n < 16 {
		n = 16
	}
	p := 0.01
	kf := -float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)
	lf := kf / float64(n) * math.Ln2
	return New(int(kf)+1, int(lf+0.5))
}

// hash produces the i-th hash of v via splitmix64 seeded per function —
// cheap, well-distributed, and dependency-free.
func (f *Filter) hash(v stream.Value, i int) uint64 {
	x := uint64(v) + uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x % f.k
}

// Insert adds a value to the filter.
func (f *Filter) Insert(v stream.Value) {
	for i := 0; i < f.hashes; i++ {
		h := f.hash(v, i)
		f.bits[h/64] |= 1 << (h % 64)
	}
	f.n++
}

// MayContain reports whether v may be in the set. False means certainly
// absent.
func (f *Filter) MayContain(v stream.Value) bool {
	for i := 0; i < f.hashes; i++ {
		h := f.hash(v, i)
		if f.bits[h/64]&(1<<(h%64)) == 0 {
			return false
		}
	}
	return true
}

// NoteDelete records that an underlying value expired. The filter itself is
// unchanged (still sound); once staleness exceeds half the insertions the
// owner should Rebuild.
func (f *Filter) NoteDelete() { f.stale++ }

// NeedsRebuild reports whether enough deletions accumulated that the filter
// is likely saturated with dead bits.
func (f *Filter) NeedsRebuild() bool {
	return f.stale > 0 && f.stale*2 >= f.n
}

// Rebuild resets the filter and reinserts the live values.
func (f *Filter) Rebuild(live []stream.Value) {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n, f.stale = 0, 0
	for _, v := range live {
		f.Insert(v)
	}
}

// SizeBytes returns the memory footprint of the bit array.
func (f *Filter) SizeBytes() int64 { return int64(len(f.bits) * 8) }
