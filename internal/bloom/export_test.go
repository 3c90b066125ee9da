package bloom

// Bits returns the number of bits in the filter.
func (f *Filter) Bits() int { return int(f.k) }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() int { return f.hashes }
