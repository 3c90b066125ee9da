// Package lint is the repo's static-invariant framework (DESIGN.md §11): a
// stdlib-only analogue of golang.org/x/tools/go/analysis, sized to this
// module. The headline guarantees — bit-identical counters across modes,
// shards and traced-vs-untraced runs, REF-order final delivery, byte-stable
// RESULTS and checkpoint goldens — rest on cross-cutting code invariants
// (no unordered map iteration on result paths, no wall clock in the
// event-time engine, tracing only through the nil-safe obs.Tracer). The
// runtime equivalence sweeps catch violations late and only on exercised
// paths; the analyzers in internal/lint/* catch them at `go vet` time, on
// every path.
//
// The framework is deliberately x/tools-shaped (Analyzer, Pass, Reportf)
// so the suite could migrate onto go/analysis unchanged if the module ever
// takes on that dependency; it is hand-rolled here because the repo builds
// offline from the standard library alone.
//
// # Suppressions
//
// A finding is silenced by annotating the flagged line (or the line
// directly above it) with
//
//	//jitlint:allow <analyzer> <reason>
//
// The reason is mandatory — the suppaudit analyzer rejects bare or
// unknown-analyzer annotations — and every annotation must earn its keep:
// the driver reports an allow that suppressed nothing as a finding, so
// stale suppressions are cleaned up with the violation they excused.
// `jitlint -inventory` prints the repo-wide suppression inventory.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static invariant check.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //jitlint:allow annotations.
	Name string
	// Doc is the one-paragraph description `jitlint -help` prints: the
	// invariant, and which runtime guarantee it protects.
	Doc string
	// Packages restricts which packages the analyzer inspects, matched
	// against the final import-path element ("engine" matches
	// repro/internal/engine). Empty means every package.
	Packages []string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// AppliesTo reports whether the analyzer inspects the package with the
// given import path.
func (a *Analyzer) AppliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	base := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			base = path[i+1:]
			break
		}
	}
	for _, p := range a.Packages {
		if p == base {
			return true
		}
	}
	return false
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test files, in filename order.
	Files []*ast.File
	// Path is the package's import path, Pkg its type-checked form and
	// Info the recorded type facts (Types, Defs, Uses, Selections).
	Path string
	Pkg  *types.Package
	Info *types.Info

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the file:line:col: [analyzer] message form
// jitlint prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// sortDiags orders findings for stable output: by file, line, column,
// analyzer, message.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
