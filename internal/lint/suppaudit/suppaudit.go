// Package suppaudit keeps the suppression surface deliberate: every
// //jitlint:allow annotation must name a known analyzer and carry a
// written reason. Together with the driver's unused-suppression findings
// and the `jitlint -inventory` listing (uploaded nightly in CI), the full
// set of excused sites stays reviewable — a suppression is a documented
// argument, not an off switch.
package suppaudit

import (
	"repro/internal/lint"
)

// KnownAnalyzers are the valid targets of a //jitlint:allow annotation.
// The cmd/jitlint registration test pins this list against the installed
// suite, so a new analyzer cannot be added without becoming suppressible
// (and auditable) here.
var KnownAnalyzers = []string{
	"maporder", "suppaudit", "tracedisc", "wallclock",
}

// Analyzer is the suppression audit. It runs on every package.
var Analyzer = &lint.Analyzer{
	Name: "suppaudit",
	Doc: "every //jitlint:allow must name a known analyzer and carry a reason; " +
		"the suppression inventory is reported via jitlint -inventory",
	Run: run,
}

func run(pass *lint.Pass) error {
	known := map[string]bool{}
	for _, n := range KnownAnalyzers {
		known[n] = true
	}
	for _, f := range pass.Files {
		for _, a := range lint.ParseAllows(pass.Fset, f) {
			switch {
			case a.Analyzer == "":
				pass.Reportf(a.TokPos,
					"bare %s: write %s <analyzer> <reason>", lint.AllowPrefix, lint.AllowPrefix)
			case !known[a.Analyzer]:
				pass.Reportf(a.TokPos,
					"%s names unknown analyzer %q (known: maporder, suppaudit, tracedisc, wallclock)",
					lint.AllowPrefix, a.Analyzer)
			case a.Reason == "":
				pass.Reportf(a.TokPos,
					"%s %s without a reason: a suppression is an argument, write down why the site is safe",
					lint.AllowPrefix, a.Analyzer)
			}
		}
	}
	return nil
}
