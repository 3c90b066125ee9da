package metrics

// Reset clears both live and peak figures.
func (a *Account) Reset() { a.live, a.peak = 0, 0 }
