// Package tracedisc enforces the observability discipline of DESIGN.md §9
// in the engine-path packages: trace emission goes through the nil-safe
// *obs.Tracer methods, never through direct obs.Sink access. A nil Tracer
// IS the disabled observability layer — every Tracer method nil-checks its
// receiver, so instrumented call sites cost a pointer test when tracing is
// off. Code that holds a Sink, calls Emit, or builds obs.Event values
// directly re-creates the always-on cost and ordering hazards the Tracer
// indirection exists to prevent, and would bypass the transparency
// contract (byte-identical counters traced vs untraced) the CI gate pins.
package tracedisc

import (
	"go/ast"

	"repro/internal/lint"
)

// InstrumentedPackages are the engine-path packages that carry trace
// instrumentation (matched by import-path base). The harness sides (exp,
// report, the CLIs) construct sinks and tracers — that is wiring, not
// emission, and stays out of scope.
var InstrumentedPackages = []string{
	"adapt", "core", "engine", "operator", "plan", "shard",
}

// forbidden are the obs identifiers whose very mention in an instrumented
// package means emission is bypassing the Tracer: the Sink interface and
// its implementations, the raw Event type and the Emit method.
var forbidden = map[string]bool{
	"Sink": true, "CountingSink": true, "Recorder": true, "NewRecorder": true,
	"Event": true, "Emit": true,
}

// obsPathSuffix identifies the obs package by import path without tying
// the analyzer to the module name (testdata fixtures import the real
// package).
const obsPathSuffix = "internal/obs"

// Analyzer is the tracedisc check.
var Analyzer = &lint.Analyzer{
	Name: "tracedisc",
	Doc: "engine-path packages must emit trace events only through nil-safe " +
		"*obs.Tracer methods, never via direct obs.Sink/Event/Emit access",
	Packages: InstrumentedPackages,
	Run:      run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil || obj.Pkg() == nil || !forbidden[obj.Name()] {
				return true
			}
			p := obj.Pkg().Path()
			if p != obsPathSuffix && !hasSuffix(p, "/"+obsPathSuffix) {
				return true
			}
			pass.Reportf(id.Pos(),
				"direct obs.%s access in instrumented package %s: emit through the nil-safe "+
					"*obs.Tracer methods so disabled tracing stays a pointer test (DESIGN.md §9)",
				obj.Name(), pass.Path)
			return true
		})
	}
	return nil
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}
