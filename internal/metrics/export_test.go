package metrics

// Reset clears both live and peak figures.
func (a *Account) Reset() { *a = Account{} }
