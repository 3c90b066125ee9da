// Package suite registers the jitlint analyzers. It exists apart from the
// framework so analyzer packages can import repro/internal/lint without a
// cycle; cmd/jitlint and the dogfood test both consume this one list.
package suite

import (
	"repro/internal/lint"
	"repro/internal/lint/maporder"
	"repro/internal/lint/suppaudit"
	"repro/internal/lint/tracedisc"
	"repro/internal/lint/wallclock"
)

// All returns the full analyzer suite, in name order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		maporder.Analyzer,
		suppaudit.Analyzer,
		tracedisc.Analyzer,
		wallclock.Analyzer,
	}
}
